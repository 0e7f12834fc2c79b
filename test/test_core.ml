open Kernel
open Helpers

let c31 = config ~n:3 ~t:1
let c52 = config ~n:5 ~t:2
let c72 = config ~n:7 ~t:2
let c73 = config ~n:7 ~t:3

(* ------------------------------------------------------------------ *)
(* A_{t+2}: fast decision and values                                   *)

let test_at2_quiet () =
  List.iter
    (fun cfg ->
      let trace = run at2 cfg quiet_es in
      assert_consensus trace;
      check_int "global decision at t+2" (Config.t cfg + 2) (global_round trace);
      check_int "decides the minimum" 1 (decided_value trace))
    [ c31; c52; c73 ]

let test_at2_chain () =
  let trace = run at2 c52 (Workload.Cascade.chain c52) in
  assert_consensus trace;
  check_int "t+2 under the chain" 4 (global_round trace);
  check_int "chained value survives" 1 (decided_value trace)

let test_at2_silent_crash_value () =
  let s = Workload.Cascade.silent_crashes c52 ~rounds:[ Round.first ] in
  let trace = run at2 c52 s in
  assert_consensus trace;
  check_int "t+2" 4 (global_round trace);
  check_int "p1's value died with it" 2 (decided_value trace)

let test_at2_never_early =
  qtest ~count:80 "no synchronous run decides before t+2" QCheck.int
    (fun seed ->
      let rng = Rng.create ~seed in
      let s = Workload.Random_runs.synchronous_with_delays rng c52 () in
      let trace = run at2 c52 s in
      Sim.Props.check trace = []
      &&
      match Sim.Trace.first_decision_round trace with
      | Some r -> Round.to_int r = 4
      | None -> false)

let test_at2_es_safety =
  qtest ~count:60 "safe and live on random ES runs"
    QCheck.(pair int (int_range 2 6))
    (fun (seed, gst) ->
      let rng = Rng.create ~seed in
      let s = Workload.Random_runs.eventually_synchronous rng c52 ~gst () in
      Sim.Props.check (run at2 c52 s) = [])

let test_at2_survives_witness () =
  List.iter
    (fun cfg ->
      let report = Mc.Attack.run_witness at2 cfg in
      check_bool "no violation" true (report.Mc.Attack.violations = []);
      assert_consensus report.Mc.Attack.trace)
    [ c31; c52; c73 ]

(* Every serial synchronous run of A(t+2) at (5,2) — under the full
   receiver-subset adversary, all 2^4 subsets per victim — decides at
   exactly t+2 and respects uniform consensus. *)
let test_at2_exhaustive_52 () =
  let r =
    Oracle.sweep ~policy:Mc.Serial.All_subsets ~algo:at2 ~config:c52
      ~proposals:(Sim.Runner.distinct_proposals c52)
      ()
  in
  check_bool "no violations" true (r.Mc.Exhaustive.violations = []);
  check_int "min = t+2" 4 r.Mc.Exhaustive.min_decision;
  check_int "max = t+2" 4 r.Mc.Exhaustive.max_decision;
  check_bool "tens of thousands of runs" true (r.Mc.Exhaustive.runs > 10_000)

let test_at2_survives_solo_split () =
  let report = Mc.Attack.run_solo_split at2 c52 in
  check_bool "no violation" true (report.Mc.Attack.violations = []);
  assert_consensus report.Mc.Attack.trace

(* ------------------------------------------------------------------ *)
(* Phase-2 internals: elimination (Lemma 6) and |Halt|>t (Lemma 13),   *)
(* observed by running Phase 1 alone through the engine.               *)

module Phase1_probe = struct
  type msg = Baselines.Ws_flood.payload
  type state = { config : Config.t; me : Pid.t; flood : Baselines.Ws_flood.t }

  let name = "phase1-probe"
  let model = Sim.Model.Es
  let symmetric = false

  let init config me v = { config; me; flood = Baselines.Ws_flood.init v }
  let on_send st _ = Baselines.Ws_flood.payload st.flood

  let on_receive st round inbox =
    if Round.to_int round > Config.t st.config + 1 then st
    else
      let current =
        List.filter (fun e -> Sim.Envelope.is_current e ~round) inbox
      in
      {
        st with
        flood =
          Baselines.Ws_flood.compute ~n:(Config.n st.config) ~me:st.me
            st.flood current;
      }

  let decision _ = None
  let halted _ = false
  let wire_size = Baselines.Ws_flood.payload_bytes

  let pp_msg = Baselines.Ws_flood.pp_payload
  let pp_state ppf st = Baselines.Ws_flood.pp ppf st.flood
end

module P1 = Sim.Engine.Make (Phase1_probe)

(* Run Phase 1 (t+1 rounds) under a schedule and return each survivor's
   (est, |Halt| > t) — the nE each process would send at round t+2. *)
let phase1_new_estimates cfg schedule =
  let arena =
    P1.Arena.create cfg ~proposals:(Sim.Runner.distinct_proposals cfg)
  in
  for k = 1 to Config.t cfg + 1 do
    P1.Arena.step arena
      (Sim.Schedule.compile_plan ~n:(Config.n cfg)
         (Sim.Schedule.plan_at schedule (Round.of_int k)))
  done;
  List.filter_map
    (fun p ->
      Option.map
        (fun st ->
          let flood = st.Phase1_probe.flood in
          if Baselines.Ws_flood.detects_false_suspicion flood ~config:cfg then
            `Bot
          else `Est (Value.to_int flood.Baselines.Ws_flood.est))
        (P1.Arena.state_of arena p))
    (Config.processes cfg)

let distinct_estimates n_es =
  List.sort_uniq compare
    (List.filter_map (function `Est v -> Some v | `Bot -> None) n_es)

let test_elimination_lemma6 =
  qtest ~count:120 "at most one non-bot new estimate (Lemma 6)"
    QCheck.(pair int (int_range 1 6))
    (fun (seed, gst) ->
      let rng = Rng.create ~seed in
      let s =
        if gst = 1 then Workload.Random_runs.synchronous_with_delays rng c52 ()
        else Workload.Random_runs.eventually_synchronous rng c52 ~gst ()
      in
      List.length (distinct_estimates (phase1_new_estimates c52 s)) <= 1)

let test_no_bot_in_sync_lemma13 =
  qtest ~count:120 "no bot new estimate in synchronous runs (Lemma 13)"
    QCheck.int
    (fun seed ->
      let rng = Rng.create ~seed in
      let s = Workload.Random_runs.synchronous_with_delays rng c52 () in
      List.for_all (function `Bot -> false | `Est _ -> true)
        (phase1_new_estimates c52 s))

let test_bot_under_false_suspicion () =
  (* The solo split makes p1 accumulate |Halt| > t. *)
  let n_es = phase1_new_estimates c52 (Mc.Attack.solo_split_schedule c52) in
  check_bool "some process sends bot" true
    (List.exists (function `Bot -> true | `Est _ -> false) n_es)

(* ------------------------------------------------------------------ *)
(* Fig. 4 optimization                                                 *)

let test_opt_failure_free () =
  List.iter
    (fun cfg ->
      let trace = run at2_opt cfg quiet_es in
      assert_consensus trace;
      check_int "round 2" 2 (global_round trace);
      check_int "minimum" 1 (decided_value trace))
    [ c31; c52; c73 ]

let test_opt_with_crashes =
  qtest ~count:100 "still within t+2 with crashes" QCheck.int (fun seed ->
      let rng = Rng.create ~seed in
      let s = Workload.Random_runs.synchronous_with_delays rng c52 () in
      let trace = run at2_opt c52 s in
      Sim.Props.check trace = [] && global_round trace <= 4)

let test_opt_es_safety =
  qtest ~count:60 "optimization safe on ES runs"
    QCheck.(pair int (int_range 2 5))
    (fun (seed, gst) ->
      let rng = Rng.create ~seed in
      let s = Workload.Random_runs.eventually_synchronous rng c52 ~gst () in
      Sim.Props.check (run at2_opt c52 s) = [])

(* ------------------------------------------------------------------ *)
(* Slow C: fast decision is independent of C                           *)

let test_slow_c_sync () =
  let trace = run at2_slow c52 (Workload.Cascade.chain c52) in
  assert_consensus trace;
  check_int "still t+2" 4 (global_round trace)

let test_slow_c_async_still_terminates () =
  (* The 40-round pad pushes decisions far past the engine's default bound. *)
  let trace =
    Sim.Runner.run ~max_rounds:150 at2_slow c31
      ~proposals:(Sim.Runner.distinct_proposals c31)
      (Mc.Attack.solo_split_schedule c31)
  in
  assert_consensus trace

(* ------------------------------------------------------------------ *)
(* A_<>S                                                               *)

let test_a_ds_sync () =
  let trace = run a_ds c52 quiet_es in
  assert_consensus trace;
  check_int "t+2" 4 (global_round trace)

let test_a_ds_es =
  qtest ~count:60 "A<>S safe and live on ES runs"
    QCheck.(pair int (int_range 2 6))
    (fun (seed, gst) ->
      let rng = Rng.create ~seed in
      let s = Workload.Random_runs.eventually_synchronous rng c52 ~gst () in
      Sim.Props.check (run a_ds c52 s) = [])

(* ------------------------------------------------------------------ *)
(* A_{f+2}                                                             *)

let test_af2_quiet () =
  let trace = run af2 c72 quiet_es in
  assert_consensus trace;
  check_int "failure-free is 2 rounds" 2 (global_round trace);
  check_int "minimum" 1 (decided_value trace)

let test_af2_regime () =
  match run af2 c52 quiet_es with
  | (_ : Sim.Trace.t) -> Alcotest.fail "t >= n/3 must be rejected"
  | exception Invalid_argument _ -> ()

let test_af2_early_decision =
  qtest ~count:80 "decides by f+2 in synchronous runs"
    QCheck.(pair int (int_range 0 2))
    (fun (seed, f) ->
      let rng = Rng.create ~seed in
      let s = Workload.Random_runs.synchronous rng c72 ~max_crashes:f () in
      let trace = run af2 c72 s in
      Sim.Props.check trace = []
      && global_round trace <= Sim.Schedule.crash_count s + 2)

let test_af2_eventual_bound () =
  List.iter
    (fun (k, f) ->
      let s = Workload.Cascade.split_brain c72 ~k ~f in
      let trace = run af2 c72 s in
      assert_consensus trace;
      check_bool
        (Printf.sprintf "k=%d f=%d within k+f+2" k f)
        true
        (global_round trace <= k + f + 2);
      if k > 0 then
        check_bool "stalled through the asynchronous prefix" true
          (global_round trace > k))
    [ (0, 0); (0, 2); (2, 0); (2, 1); (3, 2); (5, 1) ]

let test_af2_es_safety =
  qtest ~count:60 "safe and live on ES runs"
    QCheck.(pair int (int_range 2 6))
    (fun (seed, gst) ->
      let rng = Rng.create ~seed in
      let s = Workload.Random_runs.eventually_synchronous rng c72 ~gst () in
      Sim.Props.check (run af2 c72 s) = [])

let () =
  Alcotest.run "core"
    [
      ( "at_plus_2",
        [
          Alcotest.test_case "quiet = t+2" `Quick test_at2_quiet;
          Alcotest.test_case "chain = t+2" `Quick test_at2_chain;
          Alcotest.test_case "silent crash value" `Quick test_at2_silent_crash_value;
          Alcotest.test_case "survives the witness" `Quick test_at2_survives_witness;
          Alcotest.test_case "survives solo split" `Quick test_at2_survives_solo_split;
          Alcotest.test_case "exhaustive at (5,2)" `Slow test_at2_exhaustive_52;
          test_at2_never_early;
          test_at2_es_safety;
        ] );
      ( "lemmas",
        [
          test_elimination_lemma6;
          test_no_bot_in_sync_lemma13;
          Alcotest.test_case "bot under false suspicion" `Quick
            test_bot_under_false_suspicion;
        ] );
      ( "optimization",
        [
          Alcotest.test_case "failure-free round 2" `Quick test_opt_failure_free;
          test_opt_with_crashes;
          test_opt_es_safety;
        ] );
      ( "slow_c",
        [
          Alcotest.test_case "sync t+2" `Quick test_slow_c_sync;
          Alcotest.test_case "async terminates" `Quick
            test_slow_c_async_still_terminates;
        ] );
      ( "a_diamond_s",
        [ Alcotest.test_case "sync t+2" `Quick test_a_ds_sync; test_a_ds_es ] );
      ( "af_plus_2",
        [
          Alcotest.test_case "quiet" `Quick test_af2_quiet;
          Alcotest.test_case "regime guard" `Quick test_af2_regime;
          Alcotest.test_case "eventual bound" `Quick test_af2_eventual_bound;
          test_af2_early_decision;
          test_af2_es_safety;
        ] );
    ]
