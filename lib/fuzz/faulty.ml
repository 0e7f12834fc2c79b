open Kernel

(* Deliberately broken algorithms: the fixtures every containment and
   shrinking test (and the CI smoke job) hunts against. They live in the
   library, not the test tree, because `ipi fuzz` exposes them too. *)

(* FloodSet that decides one round too early — after [t] rounds instead of
   the [t + 1] the lower bound demands. A single well-placed crash chain
   (e.g. [Workload.Cascade.chain]) splits its decision, so fuzz campaigns
   find agreement violations against it quickly, and those violations
   shrink to readable counterexamples. *)
module Eager_floodset = struct
  type msg = Flood of Value.Set.t

  type state = {
    config : Config.t;
    seen : Value.Set.t;
    decision : Value.t option;
  }

  let name = "EagerFloodSet"
  let model = Sim.Model.Scs

  (* Same symmetric structure as FloodSet — it is only *early*, not
     id-dependent — so reduced sweeps can be validated against it too. *)
  let symmetric = true
  let init config _pid v = { config; seen = Value.Set.singleton v; decision = None }
  let on_send st _round = Flood st.seen

  let on_receive st round inbox =
    let seen =
      List.fold_left
        (fun acc (e : msg Sim.Envelope.t) ->
          match e.payload with Flood values -> Value.Set.union values acc)
        st.seen inbox
    in
    (* One flooding round short: decides at round [max 1 t], not [t + 1]. *)
    if Round.to_int round >= max 1 (Config.t st.config) then
      { st with seen; decision = Some (Value.Set.min_elt seen) }
    else { st with seen }

  let decision st = st.decision
  let halted st = st.decision <> None
  let wire_size (Flood values) = 4 + (8 * Value.Set.cardinal values)

  let pp_msg ppf (Flood values) =
    Format.fprintf ppf "flood{%a}"
      (Format.pp_print_list
         ~pp_sep:(fun ppf () -> Format.fprintf ppf ",")
         Value.pp)
      (Value.Set.elements values)

  let pp_state ppf st =
    Format.fprintf ppf "seen=%d%s"
      (Value.Set.cardinal st.seen)
      (if st.decision <> None then " decided" else "")
end

let eager_floodset = Sim.Algorithm.Packed (module Eager_floodset)

(* An algorithm whose [on_receive] raises from a given round on: the
   engine must contain it as a [Step_error] carrying the faulting pid and
   round. *)
module Raising_at (R : sig
  val at : int
end) =
struct
  type msg = Ping
  type state = { pid : Pid.t }

  let name = Format.sprintf "Raising@%d" R.at
  let model = Sim.Model.Scs
  let symmetric = true (* every process raises identically by round *)
  let init _config pid _v = { pid }
  let on_send _st _round = Ping

  let on_receive st round _inbox =
    if Round.to_int round >= R.at then failwith "injected fault" else st

  let decision _st = None
  let halted _st = false
  let wire_size Ping = 1
  let pp_msg ppf Ping = Format.pp_print_string ppf "ping"
  let pp_state ppf st = Pid.pp ppf st.pid
end

let raising ~at =
  let module M = Raising_at (struct
    let at = at
  end) in
  Sim.Algorithm.Packed (module M)

(* An algorithm that raises in [init] — outside every round, so the
   engine's containment cannot wrap it. Exercises the outer backstops:
   [Mc.Distrib]'s shard failures and the campaign's [Raised] outcome. *)
module Raising_init = struct
  type msg = Ping
  type state = unit

  let name = "RaisingInit"
  let model = Sim.Model.Scs
  let symmetric = true
  let init _config _pid _v = failwith "injected init fault"
  let on_send () _round = Ping
  let on_receive () _round _inbox = ()
  let decision () = None
  let halted () = false
  let wire_size Ping = 1
  let pp_msg ppf Ping = Format.pp_print_string ppf "ping"
  let pp_state ppf () = Format.pp_print_string ppf "-"
end

let raising_init = Sim.Algorithm.Packed (module Raising_init)
