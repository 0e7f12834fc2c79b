open Kernel

type msg = Flood of Value.t | Decide of Value.t

type state = {
  config : Config.t;
  est : Value.t;
  decision : Value.t option;
  halted : bool;
}

let name = "EarlyFS"
let model = Sim.Model.Scs

(* Sender counts and value minima only: fully pid-symmetric. *)
let symmetric = true

let init config _me v = { config; est = v; decision = None; halted = false }

let on_send st _round =
  match st.decision with Some v -> Decide v | None -> Flood st.est

let on_receive st round inbox =
  match st.decision with
  | Some _ -> { st with halted = true }
  | None -> (
      match
        List.find_map
          (fun (e : msg Sim.Envelope.t) ->
            match e.payload with Decide v -> Some v | Flood _ -> None)
          inbox
      with
      | Some v -> { st with decision = Some v }
      | None ->
          (* The inbox holds no DECIDE here (the [find_map] above caught
             that case), so every current-round envelope is a FLOOD. *)
          let heard, est =
            List.fold_left
              (fun ((heard, est) as acc) (e : msg Sim.Envelope.t) ->
                match e.payload with
                | Flood v when Sim.Envelope.is_current e ~round ->
                    (heard + 1, Value.min est v)
                | Flood _ | Decide _ -> acc)
              (0, st.est) inbox
          in
          let r = Round.to_int round and n = Config.n st.config in
          let decision =
            if r >= n - heard + 2 || r >= Config.t st.config + 1 then Some est
            else None
          in
          { st with est; decision })

let decision st = st.decision
let halted st = st.halted
let wire_size = function Flood _ | Decide _ -> 8

let pp_msg ppf = function
  | Flood v -> Format.fprintf ppf "flood(%a)" Value.pp v
  | Decide v -> Format.fprintf ppf "decide(%a)" Value.pp v

let pp_state ppf st =
  Format.fprintf ppf "@[est=%a%a@]" Value.pp st.est
    (fun ppf () ->
      match st.decision with
      | Some v -> Format.fprintf ppf " decided=%a" Value.pp v
      | None -> ())
    ()
