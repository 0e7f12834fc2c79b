open Kernel

type crashed_run = {
  choices : Serial.choice list;
  error : Sim.Engine.step_error;
}

type shard_failure = { shard : int; context : string; message : string }

type valency =
  | Undecided
  | Univalent of Value.t
  | Bivalent of Serial.choice list

type result = {
  runs : int;
  distinct_runs : int;
      (* leaves actually enumerated/simulated; [runs] additionally counts
         runs answered from a transposition table or scaled up from a
         symmetry-orbit representative *)
  max_decision : int;
  min_decision : int;
  max_witness : Serial.choice list option;
  violations : (Serial.choice list * Sim.Props.violation list) list;
  undecided_runs : int;
  crashed : crashed_run list;
  shard_failures : shard_failure list;
  expired : bool;
      (* the sweep's wall-clock budget ran out: the counts above account
         for what was explored, not for the whole space *)
  valency : valency;
}

let empty =
  {
    runs = 0;
    distinct_runs = 0;
    max_decision = 0;
    min_decision = max_int;
    max_witness = None;
    violations = [];
    undecided_runs = 0;
    crashed = [];
    shard_failures = [];
    expired = false;
    valency = Undecided;
  }

let frontier r = match r.valency with Bivalent p -> List.length p | _ -> -1

exception Expired
(* Raised at the next leaf once a sweep deadline has passed; callers catch
   it, keep what they accounted so far and mark the result [expired]. *)

let deadline_check = function
  | None -> fun () -> ()
  | Some d -> fun () -> if Unix.gettimeofday () > d then raise Expired

(* The deeper bivalent side, the first on a tie; else the first decided
   side, unless [siblings] share a root that their two values make
   bivalent. *)
let join_valency ~siblings a b =
  match (a, b) with
  | Undecided, v | v, Undecided -> v
  | Bivalent p, Bivalent q -> if List.compare_lengths q p > 0 then b else a
  | Bivalent _, Univalent _ -> a
  | Univalent _, Bivalent _ -> b
  | Univalent v, Univalent w ->
      if siblings && not (Value.equal v w) then Bivalent [] else a

let run_valency (trace : Sim.Trace.t) =
  let rec same v = function
    | [] -> true
    | (d : Sim.Trace.decision) :: rest -> Value.equal d.value v && same v rest
  in
  match trace.decisions with
  | [] -> Undecided
  | d :: rest -> if same d.value rest then Univalent d.value else Bivalent []

let add_run acc ~choices ~trace =
  let acc =
    {
      acc with
      runs = acc.runs + 1;
      distinct_runs = acc.distinct_runs + 1;
      valency = join_valency ~siblings:true acc.valency (run_valency trace);
    }
  in
  let acc =
    match Sim.Props.check trace with
    | [] -> acc
    | vs ->
        let undecided =
          List.exists
            (function
              | Sim.Props.Termination _ | Sim.Props.Unsettled _ -> true
              | Sim.Props.Validity _ | Sim.Props.Agreement _ -> false)
            vs
        in
        {
          acc with
          violations = (choices (), vs) :: acc.violations;
          undecided_runs = (acc.undecided_runs + if undecided then 1 else 0);
        }
  in
  match Sim.Trace.global_decision_round trace with
  | None -> acc
  | Some r ->
      let r = Round.to_int r in
      let acc =
        if r > acc.max_decision then
          { acc with max_decision = r; max_witness = Some (choices ()) }
        else acc
      in
      if r < acc.min_decision then { acc with min_decision = r } else acc

let add_crashed acc ~choices ~error =
  {
    acc with
    runs = acc.runs + 1;
    distinct_runs = acc.distinct_runs + 1;
    crashed = { choices; error } :: acc.crashed;
  }

(* [merge] joins separate trees, [combine] sibling subtrees of one root:
   they differ in which side's violation and crashed lists go first and
   in what two univalent sides make. *)
let join ~siblings a b =
  let cat x y = if siblings then y @ x else x @ y in
  {
    runs = a.runs + b.runs;
    distinct_runs = a.distinct_runs + b.distinct_runs;
    max_decision = max a.max_decision b.max_decision;
    min_decision = min a.min_decision b.min_decision;
    max_witness =
      (if b.max_decision > a.max_decision then b.max_witness
       else a.max_witness);
    violations = cat a.violations b.violations;
    undecided_runs = a.undecided_runs + b.undecided_runs;
    crashed = cat a.crashed b.crashed;
    shard_failures = a.shard_failures @ b.shard_failures;
    expired = a.expired || b.expired;
    valency = join_valency ~siblings a.valency b.valency;
  }

let merge a b = join ~siblings:false a b

(* The search conses violations and crashed runs as it meets them, so its
   lists are the reverse of enumeration order and a later sibling's lists
   go in front. *)
let combine acc later = join ~siblings:true acc later

let binary_assignments config =
  let n = Config.n config in
  List.map
    (fun ones -> Sim.Runner.binary_proposals config ~ones:(Pid.Set.of_list ones))
    (Listx.subsets (Pid.all ~n))

let pp_result ppf r =
  let undecided = r.min_decision = max_int in
  Format.fprintf ppf
    "@[<v>%d run(s)%s; global decision rounds in [%s, %s]; %d violation(s); \
     %d undecided@]"
    r.runs
    (if r.distinct_runs = r.runs then ""
     else Format.sprintf " (%d explored, rest from reduction)" r.distinct_runs)
    (if undecided then "-" else string_of_int r.min_decision)
    (if undecided && r.max_decision = 0 then "-"
     else string_of_int r.max_decision)
    (List.length r.violations)
    r.undecided_runs;
  if r.expired then
    Format.fprintf ppf
      "@,wall-clock budget expired: PARTIAL results (the counts above \
       account only for the explored part of the space)";
  if r.crashed <> [] then
    Format.fprintf ppf "@,%d crashed run(s), first: %a"
      (List.length r.crashed)
      Sim.Engine.pp_step_error
      (List.nth r.crashed (List.length r.crashed - 1)).error;
  List.iter
    (fun f ->
      Format.fprintf ppf "@,shard %d failed (%s): %s" f.shard f.context
        f.message)
    r.shard_failures
