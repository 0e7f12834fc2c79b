open Kernel
open Helpers

let c52 = config ~n:5 ~t:2

(* ------------------------------------------------------------------ *)
(* Ws_flood compute(), driven by hand                                  *)

let payload est halt =
  {
    Baselines.Ws_flood.p_est = Value.of_int est;
    p_halt = Bitset.of_pid_set (Pid.Set.of_ints halt);
  }

let env src p =
  Sim.Envelope.make ~src:(Pid.of_int src) ~sent:Round.first p

let test_ws_flood_min () =
  let t = Baselines.Ws_flood.init (Value.of_int 5) in
  let t =
    Baselines.Ws_flood.compute ~n:3 ~me:(Pid.of_int 1) t
      [ env 1 (payload 5 []); env 2 (payload 3 []); env 3 (payload 9 []) ]
  in
  check_int "est is the minimum" 3 (Value.to_int t.Baselines.Ws_flood.est);
  check_bool "no suspicions" true (Bitset.is_empty t.Baselines.Ws_flood.halt)

let test_ws_flood_suspicion () =
  let t = Baselines.Ws_flood.init (Value.of_int 5) in
  (* p3's message is missing: suspect it; its estimate is not considered. *)
  let t =
    Baselines.Ws_flood.compute ~n:3 ~me:(Pid.of_int 1) t
      [ env 1 (payload 5 []); env 2 (payload 7 []) ]
  in
  check_bool "p3 suspected" true
    (Bitset.mem 3 t.Baselines.Ws_flood.halt);
  check_int "est" 5 (Value.to_int t.Baselines.Ws_flood.est)

let test_ws_flood_accusation () =
  let t = Baselines.Ws_flood.init (Value.of_int 5) in
  (* p2 reports having suspected p1 (me): p2 joins Halt and its smaller
     estimate is excluded. *)
  let t =
    Baselines.Ws_flood.compute ~n:3 ~me:(Pid.of_int 1) t
      [
        env 1 (payload 5 []);
        env 2 (payload 1 [ 1 ]);
        env 3 (payload 9 []);
      ]
  in
  check_bool "accuser halted" true
    (Bitset.mem 2 t.Baselines.Ws_flood.halt);
  check_int "accuser's estimate excluded" 5
    (Value.to_int t.Baselines.Ws_flood.est)

let test_ws_flood_halt_is_sticky () =
  let t = Baselines.Ws_flood.init (Value.of_int 5) in
  let t =
    Baselines.Ws_flood.compute ~n:3 ~me:(Pid.of_int 1) t
      [ env 1 (payload 5 []); env 2 (payload 7 []) ]
  in
  (* p3 reappears with a tiny estimate: still excluded. *)
  let t =
    Baselines.Ws_flood.compute ~n:3 ~me:(Pid.of_int 1) t
      [ env 1 (payload 5 []); env 2 (payload 7 []); env 3 (payload 0 []) ]
  in
  check_bool "p3 still halted" true
    (Bitset.mem 3 t.Baselines.Ws_flood.halt);
  check_int "est unchanged" 5 (Value.to_int t.Baselines.Ws_flood.est)

let test_ws_flood_false_detection () =
  let t = Baselines.Ws_flood.init (Value.of_int 5) in
  let t =
    Baselines.Ws_flood.compute ~n:5 ~me:(Pid.of_int 1) t
      [ env 1 (payload 5 []); env 2 (payload 7 []); env 3 (payload 7 []) ]
  in
  (* two suspicions with t = 1: |Halt| > t *)
  check_bool "detects false suspicion" true
    (Baselines.Ws_flood.detects_false_suspicion t ~config:(config ~n:5 ~t:1));
  check_bool "not with t = 2" false
    (Baselines.Ws_flood.detects_false_suspicion t ~config:c52)

(* A round that learns nothing returns the state itself, and the walk
   refuses envelopes that are not ascending one per sender. *)
let test_ws_flood_walk () =
  let t = Baselines.Ws_flood.init (Value.of_int 5) in
  let round =
    [ env 1 (payload 5 []); env 2 (payload 7 []); env 3 (payload 9 []) ]
  in
  check_bool "nothing learned: same state" true
    (Baselines.Ws_flood.compute ~n:3 ~me:(Pid.of_int 1) t round == t);
  let raises current =
    match Baselines.Ws_flood.compute ~n:3 ~me:(Pid.of_int 1) t current with
    | _ -> false
    | exception Invalid_argument _ -> true
  in
  check_bool "descending refused" true (raises (List.rev round));
  check_bool "duplicate sender refused" true
    (raises [ env 1 (payload 5 []); env 1 (payload 5 []) ]);
  check_bool "sender beyond n refused" true
    (raises (round @ [ env 4 (payload 1 []) ]))

(* ------------------------------------------------------------------ *)
(* FloodSet                                                            *)

let test_floodset_quiet () =
  let trace = run floodset c52 quiet_es in
  assert_consensus trace;
  check_int "decides at t+1" 3 (global_round trace);
  check_int "decides the minimum" 1 (decided_value trace)

let test_floodset_chain () =
  let trace = run floodset c52 (Workload.Cascade.chain c52) in
  assert_consensus trace;
  check_int "still t+1" 3 (global_round trace);
  (* p1's value 1 survives along the chain p1 -> p2 -> p3. *)
  check_int "chained minimum" 1 (decided_value trace)

let test_floodset_silent_crash () =
  let s =
    Workload.Cascade.silent_crashes c52 ~rounds:[ Round.first ]
  in
  let trace = run floodset c52 s in
  assert_consensus trace;
  (* p1 died before sending: its value disappears. *)
  check_int "minimum without p1" 2 (decided_value trace)

let test_floodset_es_violation () =
  let trace =
    Sim.Runner.run floodset c52
      ~proposals:(Sim.Runner.distinct_proposals c52)
      (Mc.Attack.solo_split_schedule c52)
  in
  check_bool "agreement broken in ES" true
    (Sim.Props.check_agreement trace <> [])

(* ------------------------------------------------------------------ *)
(* FloodSetWS                                                          *)

let test_floodset_ws_quiet () =
  let trace = run floodset_ws c52 quiet_es in
  assert_consensus trace;
  check_int "decides at t+1" 3 (global_round trace);
  check_int "minimum" 1 (decided_value trace)

let test_floodset_ws_sync_safety =
  qtest ~count:80 "safe on random synchronous runs" QCheck.int (fun seed ->
      let rng = Rng.create ~seed in
      let s = Workload.Random_runs.synchronous_with_delays rng c52 () in
      let trace = run floodset_ws c52 s in
      Sim.Props.check trace = []
      && global_round trace <= 3 (* t+1 *))

(* ------------------------------------------------------------------ *)
(* CT-<>S                                                              *)

let test_ct_quiet () =
  let trace = run ct c52 quiet_es in
  assert_consensus trace;
  check_int "phase 0 decides at round 4" 4 (global_round trace);
  check_int "coordinator's minimum" 1 (decided_value trace)

let test_ct_coordinator_crash () =
  let trace =
    run ct c52 (Workload.Cascade.coordinator_killer c52 ~phase_rounds:4)
  in
  assert_consensus trace;
  check_int "t wasted phases" 12 (global_round trace)

let test_ct_es_safety =
  qtest ~count:50 "safe and live on random ES runs" QCheck.int (fun seed ->
      let rng = Rng.create ~seed in
      let s = Workload.Random_runs.eventually_synchronous rng c52 ~gst:4 () in
      Sim.Props.check (run ct c52 s) = [])

let test_ct_rejects_bad_resilience () =
  match run ct (config ~n:4 ~t:2) quiet_es with
  | (_ : Sim.Trace.t) -> Alcotest.fail "t >= n/2 must be rejected"
  | exception Invalid_argument _ -> ()

(* CT-naive splits under a partition with t >= n/2. *)
let test_ct_naive_partition () =
  let cfg = config ~n:4 ~t:2 in
  let trace =
    run ct_naive cfg (Workload.Partition.split cfg ~until:16)
  in
  check_bool "agreement broken" true (Sim.Props.check_agreement trace <> [])

(* ------------------------------------------------------------------ *)
(* Hurfin-Raynal                                                       *)

let test_hr_quiet () =
  let trace = run hr c52 quiet_es in
  assert_consensus trace;
  check_int "failure-free is 2 rounds" 2 (global_round trace);
  check_int "coordinator value" 1 (decided_value trace)

let test_hr_worst_case () =
  let trace =
    run hr c52 (Workload.Cascade.coordinator_killer c52 ~phase_rounds:2)
  in
  assert_consensus trace;
  check_int "2t+2" 6 (global_round trace)

let test_hr_sync_and_es_safety =
  qtest ~count:60 "safe on random sync and ES runs"
    QCheck.(pair int bool)
    (fun (seed, sync) ->
      let rng = Rng.create ~seed in
      let s =
        if sync then Workload.Random_runs.synchronous_with_delays rng c52 ()
        else Workload.Random_runs.eventually_synchronous rng c52 ~gst:3 ()
      in
      Sim.Props.check (run hr c52 s) = [])

(* ------------------------------------------------------------------ *)
(* AMR                                                                 *)

let c72 = config ~n:7 ~t:2

let test_amr_quiet () =
  let trace = run amr c72 quiet_es in
  assert_consensus trace;
  check_int "one phase" 2 (global_round trace);
  check_int "leader minimum" 1 (decided_value trace)

let test_amr_regime () =
  match run amr c52 quiet_es with
  | (_ : Sim.Trace.t) -> Alcotest.fail "t >= n/3 must be rejected"
  | exception Invalid_argument _ -> ()

let test_amr_safety =
  qtest ~count:60 "safe on random sync and ES runs"
    QCheck.(pair int bool)
    (fun (seed, sync) ->
      let rng = Rng.create ~seed in
      let s =
        if sync then Workload.Random_runs.synchronous_with_delays rng c72 ()
        else Workload.Random_runs.eventually_synchronous rng c72 ~gst:3 ()
      in
      Sim.Props.check (run amr c72 s) = [])

(* ------------------------------------------------------------------ *)
(* EarlyFS — early-deciding uniform consensus in SCS                   *)

let test_early_fs_failure_free () =
  let trace = run early_fs c52 quiet_es in
  assert_consensus trace;
  check_int "f=0 decides at round 2" 2 (global_round trace);
  check_int "minimum" 1 (decided_value trace)

let test_early_fs_tracks_failures () =
  (* A crash silent from round 1 leaves every process hearing n - 1 in
     rounds 1 and 2, so neither round decides (r < n - h_r + 2 = 3); round
     3 = f + 2 = t + 1 does. *)
  let s1 = Workload.Cascade.silent_crashes c52 ~rounds:[ Round.first ] in
  let trace1 = run early_fs c52 s1 in
  assert_consensus trace1;
  check_int "round-1 crash: f+2 = 3" 3 (global_round trace1);
  (* A crash in round 2: round 1 heard everyone but r = 1 < 2, round 2
     misses the victim; decision at f+2 = 3. *)
  let s2 = Workload.Cascade.silent_crashes c52 ~rounds:[ Round.of_int 2 ] in
  let trace2 = run early_fs c52 s2 in
  assert_consensus trace2;
  check_int "round-2 crash: f+2 = 3" 3 (global_round trace2)

let test_early_fs_exhaustive () =
  (* Uniform agreement over EVERY serial run with every receiver subset:
     the rule "decide at round r once r >= n - h_r + 2" survives the
     adversary that kills all early deciders, t = 3 included. *)
  List.iter
    (fun (n, t) ->
      let config = config ~n ~t in
      let r =
        Oracle.sweep_binary ~policy:Mc.Serial.All_subsets
          ~horizon:(t + 2) ~algo:early_fs ~config ()
      in
      check_bool
        (Printf.sprintf "no violations at (%d,%d)" n t)
        true
        (r.Mc.Exhaustive.violations = []);
      check_bool "bounded by t+1" true
        (r.Mc.Exhaustive.max_decision <= t + 1))
    [ (3, 1); (4, 1); (4, 2); (4, 3) ]

(* The (7,3) run that broke the earlier "same sender set twice" rule: p2's
   last message reaches p3, so p3 heard the same six senders in rounds 1
   and 2, decided 1 at round 2 and crashed silently in round 3, while
   p4..p7 decided 2 at round 4. *)
let test_early_fs_regression_7_3 () =
  let c73 = config ~n:7 ~t:3 in
  let crash victim receivers =
    Mc.Serial.Crash
      { victim = Pid.of_int victim; receivers = Pid.Set.of_ints receivers }
  in
  let s =
    Mc.Serial.to_schedule c73
      [ crash 1 [ 2 ]; crash 2 [ 3 ]; crash 3 []; Mc.Serial.No_crash ]
  in
  assert_valid c73 s;
  let trace = run early_fs c73 s in
  assert_consensus trace;
  check_bool "within min(f+2, t+1)" true (global_round trace <= 4)

(* Proposition 1 applies to the early decider too: it reaches t+1 in every
   synchronous run, so some ES run must break it — the crash-free solo split
   does. *)
let test_early_fs_broken_in_es () =
  let r = Mc.Attack.run_solo_split early_fs c52 in
  check_bool "agreement broken in ES" true (r.Mc.Attack.violations <> [])

let test_early_fs_random =
  qtest ~count:120 "min(f+2, t+1) over random synchronous runs" QCheck.int
    (fun seed ->
      let rng = Rng.create ~seed in
      let s = Workload.Random_runs.synchronous rng c52 () in
      let trace = run early_fs c52 s in
      Sim.Props.check trace = []
      && global_round trace
         <= min (Sim.Schedule.crash_count s + 2) (Config.t c52 + 1))

(* ------------------------------------------------------------------ *)
(* DLS (fail-stop basic round model, Section 1.4)                      *)

let test_dls_quiet () =
  let trace = run dls c52 quiet_es in
  assert_consensus trace;
  check_int "phase 0 decides at round 4" 4 (global_round trace);
  check_int "leader's minimum" 1 (decided_value trace)

let test_dls_leader_crashes () =
  let trace =
    run dls c52 (Workload.Cascade.coordinator_killer c52 ~phase_rounds:4)
  in
  assert_consensus trace;
  check_int "t wasted phases" 12 (global_round trace)

let test_dls_regime () =
  match run dls (config ~n:4 ~t:2) quiet_es with
  | (_ : Sim.Trace.t) -> Alcotest.fail "needs n >= 2t+1"
  | exception Invalid_argument _ -> ()

let test_dls_survives_solo_split_dls () =
  let r = Mc.Attack.run_solo_split_dls dls c52 in
  check_bool "safe" true (r.Mc.Attack.violations = []);
  assert_consensus r.Mc.Attack.trace

(* Regression: this exact schedule once stranded p2 — p4/p5 crash, p1/p3
   decide early, and with one-shot DECIDE relays (all lost pre-gst) the lone
   survivor could never gather a report quorum again. Deciders must
   broadcast DECIDE forever in this model. *)
let test_dls_relay_regression () =
  let rng = Rng.create ~seed:88 in
  let s = Workload.Random_runs.dls_basic rng c52 ~gst:8 () in
  assert_valid c52 s;
  let trace = run dls c52 s in
  assert_consensus trace

let test_dls_basic_model_safety =
  qtest ~count:60 "safe and live on random DLS-basic schedules"
    QCheck.(pair int (int_range 1 8))
    (fun (seed, gst) ->
      let rng = Rng.create ~seed in
      let s = Workload.Random_runs.dls_basic rng c52 ~gst () in
      match Sim.Schedule.validate c52 s with
      | Error _ -> false
      | Ok () -> Sim.Props.check (run dls c52 s) = [])

let test_dls_on_es_runs =
  qtest ~count:50 "also safe and live on ES schedules"
    QCheck.(pair int (int_range 2 5))
    (fun (seed, gst) ->
      let rng = Rng.create ~seed in
      let s = Workload.Random_runs.eventually_synchronous rng c52 ~gst () in
      Sim.Props.check (run dls c52 s) = [])

(* ------------------------------------------------------------------ *)
(* FloodMin — the scalar flooding baseline and scaling witness         *)

let test_floodmin_quiet () =
  let trace = run floodmin c52 quiet_es in
  assert_consensus trace;
  check_int "decides at t+1" 3 (global_round trace);
  check_int "minimum" 1 (decided_value trace);
  check_bool "everyone halts" true trace.Sim.Trace.all_halted

module Floodmin_plus_4 = Baselines.Floodmin.Make (struct
  let extra_rounds = 4
end)

let test_floodmin_extra_rounds () =
  let algo = Sim.Algorithm.Packed (module Floodmin_plus_4) in
  let trace = run algo c52 quiet_es in
  assert_consensus trace;
  check_int "decision shifted by the extra rounds" 7 (global_round trace);
  check_int "still the minimum" 1 (decided_value trace)

let test_floodmin_exhaustive () =
  List.iter
    (fun (n, t) ->
      let config = config ~n ~t in
      let r = Oracle.sweep_binary ~algo:floodmin ~config () in
      check_bool
        (Printf.sprintf "no violations at (%d,%d)" n t)
        true
        (r.Mc.Exhaustive.violations = []);
      check_int "always decides at t+1" (t + 1) r.Mc.Exhaustive.max_decision)
    [ (3, 1); (4, 1); (4, 2) ]

(* n beyond one word of pids: these runs only work end to end if the
   schedule and engine paths that index processes hold pid sets of any
   size. *)
let test_floodmin_large_n () =
  List.iter
    (fun (n, t) ->
      let cfg = config ~n ~t in
      let trace = run floodmin cfg quiet_es in
      assert_consensus trace;
      check_int
        (Printf.sprintf "n=%d decides at t+1" n)
        (t + 1) (global_round trace);
      check_int "minimum survives the flood" 1 (decided_value trace);
      check_int "everyone decides" n
        (List.length (Sim.Trace.decided_values trace)))
    [ (63, 2); (64, 2); (100, 3); (1_000, 2) ]

let test_floodmin_large_n_with_crash () =
  let n = 100 in
  let cfg = config ~n ~t:2 in
  (* p1 (the minimum's owner) crashes in round 1 and its last broadcast
     reaches nobody, so the flood settles on the runner-up. *)
  let s =
    Sim.Schedule.make ~model:Sim.Model.Scs ~gst:Round.first
      [
        {
          Sim.Schedule.crashes = [ Pid.of_int 1 ];
          lost =
            List.init (n - 1) (fun i -> (Pid.of_int 1, Pid.of_int (i + 2)));
          delayed = [];
        };
      ]
  in
  assert_valid cfg s;
  let trace = run floodmin cfg s in
  assert_consensus trace;
  check_int "second-smallest value wins" 2 (decided_value trace)

(* ------------------------------------------------------------------ *)
(* Padding                                                             *)

module Padded_hr =
  Baselines.Padding.Make
    (Baselines.Hurfin_raynal)
    (struct
      let rounds = 5
    end)

let test_padding () =
  let trace =
    run (Sim.Algorithm.Packed (module Padded_hr)) c52 quiet_es
  in
  assert_consensus trace;
  check_int "shifted by the pad" 7 (global_round trace);
  check_string "name carries the pad" "HR-<>S+pad5" Padded_hr.name

let () =
  Alcotest.run "baselines"
    [
      ( "ws_flood",
        [
          Alcotest.test_case "minimum" `Quick test_ws_flood_min;
          Alcotest.test_case "suspicion" `Quick test_ws_flood_suspicion;
          Alcotest.test_case "accusation" `Quick test_ws_flood_accusation;
          Alcotest.test_case "halt sticky" `Quick test_ws_flood_halt_is_sticky;
          Alcotest.test_case "false detection" `Quick test_ws_flood_false_detection;
          Alcotest.test_case "one walk" `Quick test_ws_flood_walk;
        ] );
      ( "floodset",
        [
          Alcotest.test_case "quiet" `Quick test_floodset_quiet;
          Alcotest.test_case "chain" `Quick test_floodset_chain;
          Alcotest.test_case "silent crash" `Quick test_floodset_silent_crash;
          Alcotest.test_case "ES violation" `Quick test_floodset_es_violation;
        ] );
      ( "floodset_ws",
        [
          Alcotest.test_case "quiet" `Quick test_floodset_ws_quiet;
          test_floodset_ws_sync_safety;
        ] );
      ( "ct",
        [
          Alcotest.test_case "quiet" `Quick test_ct_quiet;
          Alcotest.test_case "coordinator crashes" `Quick test_ct_coordinator_crash;
          Alcotest.test_case "regime guard" `Quick test_ct_rejects_bad_resilience;
          Alcotest.test_case "naive partition" `Quick test_ct_naive_partition;
          test_ct_es_safety;
        ] );
      ( "hurfin_raynal",
        [
          Alcotest.test_case "quiet" `Quick test_hr_quiet;
          Alcotest.test_case "worst case 2t+2" `Quick test_hr_worst_case;
          test_hr_sync_and_es_safety;
        ] );
      ( "amr",
        [
          Alcotest.test_case "quiet" `Quick test_amr_quiet;
          Alcotest.test_case "regime guard" `Quick test_amr_regime;
          test_amr_safety;
        ] );
      ( "early_fs",
        [
          Alcotest.test_case "failure-free round 2" `Quick
            test_early_fs_failure_free;
          Alcotest.test_case "tracks failures" `Quick
            test_early_fs_tracks_failures;
          Alcotest.test_case "exhaustive uniform agreement" `Slow
            test_early_fs_exhaustive;
          Alcotest.test_case "(7,3) regression" `Quick
            test_early_fs_regression_7_3;
          Alcotest.test_case "broken in ES (Proposition 1)" `Quick
            test_early_fs_broken_in_es;
          test_early_fs_random;
        ] );
      ( "floodmin",
        [
          Alcotest.test_case "quiet" `Quick test_floodmin_quiet;
          Alcotest.test_case "extra rounds" `Quick test_floodmin_extra_rounds;
          Alcotest.test_case "exhaustive" `Quick test_floodmin_exhaustive;
          Alcotest.test_case "large n" `Quick test_floodmin_large_n;
          Alcotest.test_case "large n with crash" `Quick
            test_floodmin_large_n_with_crash;
        ] );
      ( "dls",
        [
          Alcotest.test_case "quiet" `Quick test_dls_quiet;
          Alcotest.test_case "leader crashes" `Quick test_dls_leader_crashes;
          Alcotest.test_case "regime guard" `Quick test_dls_regime;
          Alcotest.test_case "solo split in DLS model" `Quick
            test_dls_survives_solo_split_dls;
          Alcotest.test_case "stranded-survivor regression" `Quick
            test_dls_relay_regression;
          test_dls_basic_model_safety;
          test_dls_on_es_runs;
        ] );
      ("padding", [ Alcotest.test_case "pad shifts rounds" `Quick test_padding ]);
    ]
