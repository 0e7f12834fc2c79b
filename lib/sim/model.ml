type t = Scs | Es | Dls_basic

let equal a b =
  match (a, b) with
  | Scs, Scs | Es, Es | Dls_basic, Dls_basic -> true
  | _ -> false

let to_string = function Scs -> "SCS" | Es -> "ES" | Dls_basic -> "DLS"
let pp ppf m = Format.pp_print_string ppf (to_string m)

type omission = Obs.Event.omission = Send_omit | Recv_omit

let equal_omission a b =
  match (a, b) with
  | Send_omit, Send_omit | Recv_omit, Recv_omit -> true
  | _ -> false

let omission_to_string = Obs.Event.omission_to_string
let omission_of_string = Obs.Event.omission_of_string

let pp_omission ppf o = Format.pp_print_string ppf (omission_to_string o)

type budget = { t_crash : int; t_omit : int }

let budget ~t_crash ~t_omit =
  if t_crash < 0 || t_omit < 0 then
    invalid_arg "Model.budget: negative component";
  { t_crash; t_omit }

let pp_budget ppf b = Format.fprintf ppf "%d+%d" b.t_crash b.t_omit

type faults = Crash_only | Send_omit_only | Recv_omit_only | Mixed

let faults_to_string = function
  | Crash_only -> "crash"
  | Send_omit_only -> "send-omit"
  | Recv_omit_only -> "recv-omit"
  | Mixed -> "mixed"

let faults_of_string = function
  | "crash" -> Some Crash_only
  | "send-omit" -> Some Send_omit_only
  | "recv-omit" -> Some Recv_omit_only
  | "mixed" -> Some Mixed
  | _ -> None

let pp_faults ppf f = Format.pp_print_string ppf (faults_to_string f)
let all_faults = [ Crash_only; Send_omit_only; Recv_omit_only; Mixed ]

(* [omit_budget] is clamped to [t], so the split always obeys the soundness
   rule [t_crash + t_omit <= t]. *)
let split_budget ?(omit_budget = 1) ~faults config =
  let t = Kernel.Config.t config in
  let o = min omit_budget t in
  match faults with
  | Crash_only -> budget ~t_crash:t ~t_omit:0
  | Send_omit_only | Recv_omit_only -> budget ~t_crash:0 ~t_omit:o
  | Mixed -> budget ~t_crash:(t - o) ~t_omit:o
