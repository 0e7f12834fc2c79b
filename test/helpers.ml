(* Shared helpers for the test suites. *)

open Kernel

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

let config ~n ~t = Config.make ~n ~t

let quiet_es = Sim.Schedule.make ~model:Sim.Model.Es ~gst:Round.first []

let run ?sink ?max_rounds algo cfg schedule =
  Sim.Runner.run ?sink ?max_rounds algo cfg
    ~proposals:(Sim.Runner.distinct_proposals cfg)
    schedule

(* A run with its event stream, and the diagram drawn from such a
   stream. *)
let traced_run algo cfg schedule =
  let sink, drain = Obs.Sink.memory () in
  let trace = run ~sink algo cfg schedule in
  (trace, drain ())

let diagram events =
  match Obs.Replay.of_events events with
  | Ok replay -> Format.asprintf "%a" Obs.Replay.pp_diagram replay
  | Error e -> Alcotest.fail e

let run_binary ?max_rounds algo cfg ~ones schedule =
  Sim.Runner.run ?max_rounds algo cfg
    ~proposals:(Sim.Runner.binary_proposals cfg ~ones:(Pid.Set.of_ints ones))
    schedule

let global_round trace =
  match Sim.Trace.global_decision_round trace with
  | Some r -> Round.to_int r
  | None -> Alcotest.fail "no global decision"

let decided_value trace =
  match Sim.Trace.decided_values trace with
  | v :: _ -> Value.to_int v
  | [] -> Alcotest.fail "nobody decided"

let assert_consensus trace =
  match Sim.Props.check trace with
  | [] -> ()
  | vs ->
      Alcotest.fail
        (Format.asprintf "%a"
           (Format.pp_print_list Sim.Props.pp_violation)
           vs)

let assert_valid cfg schedule =
  match Sim.Schedule.validate cfg schedule with
  | Ok () -> ()
  | Error e -> Alcotest.fail ("schedule should be valid: " ^ e)

let assert_invalid cfg schedule =
  match Sim.Schedule.validate cfg schedule with
  | Ok () -> Alcotest.fail "schedule should be invalid"
  | Error _ -> ()

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec scan i =
    i + nn <= nh && (String.sub haystack i nn = needle || scan (i + 1))
  in
  nn = 0 || scan 0

let qtest ?(count = 100) name arbitrary prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~name ~count arbitrary prop)

(* Packed algorithms used across suites. *)
let floodset = Sim.Algorithm.Packed (module Baselines.Floodset)
let floodset_ws = Sim.Algorithm.Packed (module Baselines.Floodset_ws)
let ct = Sim.Algorithm.Packed (module Baselines.Ct_diamond_s)
let ct_naive = Sim.Algorithm.Packed (module Baselines.Ct_naive)
let hr = Sim.Algorithm.Packed (module Baselines.Hurfin_raynal)
let amr = Sim.Algorithm.Packed (module Baselines.Amr)
let at2 = Sim.Algorithm.Packed (module Indulgent.At_plus_2.Standard)
let at2_opt = Sim.Algorithm.Packed (module Indulgent.At_plus_2.Optimized)
let at2_slow = Sim.Algorithm.Packed (module Indulgent.At_plus_2.Slow_fallback)
let a_ds = Sim.Algorithm.Packed (module Indulgent.A_diamond_s)
let af2 = Sim.Algorithm.Packed (module Indulgent.Af_plus_2)
let dls = Sim.Algorithm.Packed (module Baselines.Dls)
let early_fs = Sim.Algorithm.Packed (module Baselines.Early_floodset)
let floodmin = Sim.Algorithm.Packed (module Baselines.Floodmin.Std)
