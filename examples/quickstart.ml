(* Quickstart: run the paper's algorithm A_{t+2} once and look at the trace.

   Build and run with:  dune exec examples/quickstart.exe *)

open Kernel

let () =
  (* A system of n = 5 processes of which at most t = 2 may crash — the
     indulgent regime requires a majority of correct processes. *)
  let config = Config.make ~n:5 ~t:2 in

  (* Every process proposes a value; p_i proposes i here. *)
  let proposals = Sim.Runner.distinct_proposals config in

  (* A schedule is the adversary's plan. This one crashes one process per
     round, each victim heard by a single survivor — the classic worst case
     for flooding consensus. It is synchronous: failure detection is never
     wrong, merely reporting the crashes. *)
  let schedule = Workload.Cascade.chain config in
  Sim.Schedule.validate_exn config schedule;

  (* Pick the algorithm — the paper's A_{t+2} — and run it, keeping the
     run's event stream in memory to draw the space/time diagram from. *)
  let algo = Sim.Algorithm.Packed (module Indulgent.At_plus_2.Standard) in
  let sink, drain = Obs.Sink.memory () in
  let trace = Sim.Runner.run ~sink algo config ~proposals schedule in

  Format.printf "%a@.@." Sim.Trace.pp_summary trace;
  Format.printf "%a@.@." Obs.Replay.pp_diagram
    (Result.get_ok (Obs.Replay.of_events (drain ())));

  (* Check consensus: validity, uniform agreement, termination. *)
  (match Sim.Props.check trace with
  | [] -> Format.printf "consensus holds.@."
  | violations ->
      List.iter
        (fun v -> Format.printf "VIOLATION: %a@." Sim.Props.pp_violation v)
        violations);

  (* The paper's headline: in every synchronous run A_{t+2} reaches a global
     decision at round t + 2 — one round later than the synchronous-model
     optimum t + 1, and that round is the inherent price of indulgence. *)
  match Sim.Trace.global_decision_round trace with
  | Some r ->
      Format.printf "global decision at round %d (t + 2 = %d)@."
        (Round.to_int r)
        (Config.t config + 2)
  | None -> Format.printf "no decision (unexpected!)@."
