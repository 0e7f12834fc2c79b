open Kernel
open Helpers

let c41 = config ~n:4 ~t:1
let c52 = config ~n:5 ~t:2
let props cfg = Sim.Runner.distinct_proposals cfg
let eager = Fuzz.Faulty.eager_floodset

let class_of outcome = Fuzz.Outcome.failure_of outcome

(* ------------------------------------------------------------------ *)
(* Engine containment                                                  *)

let test_engine_step_error () =
  match Helpers.run (Fuzz.Faulty.raising ~at:2) c41 quiet_es with
  | _ -> Alcotest.fail "expected Step_error"
  | exception Sim.Engine.Step_error e ->
      check_int "faulting round" 2 (Round.to_int e.Sim.Engine.round);
      check_bool "pid in range" true
        (let p = Pid.to_int e.Sim.Engine.pid in
         p >= 1 && p <= 4);
      check_bool "algorithm named" true (e.Sim.Engine.algorithm = "Raising@2");
      check_bool "printable" true
        (contains
           (Format.asprintf "%a" Sim.Engine.pp_step_error e)
           "injected fault")

(* ------------------------------------------------------------------ *)
(* Harness outcomes                                                    *)

let test_harness_passed () =
  match Fuzz.Harness.run ~algo:at2 ~config:c52 ~proposals:(props c52) quiet_es with
  | Fuzz.Outcome.Passed { decision_round = Some r; _ } ->
      check_int "A(t+2) decides at t+2" 4 r
  | o -> Alcotest.fail (Format.asprintf "expected Passed: %a" Fuzz.Outcome.pp o)

let test_harness_crashed () =
  match
    Fuzz.Harness.run
      ~algo:(Fuzz.Faulty.raising ~at:3)
      ~config:c41 ~proposals:(props c41) quiet_es
  with
  | Fuzz.Outcome.Crashed e ->
      check_int "round carried" 3 (Round.to_int e.Sim.Engine.round)
  | o -> Alcotest.fail (Format.asprintf "expected Crashed: %a" Fuzz.Outcome.pp o)

let test_harness_budget () =
  match
    Fuzz.Harness.run ~fuel:1 ~algo:at2 ~config:c52 ~proposals:(props c52)
      quiet_es
  with
  | Fuzz.Outcome.Budget_exhausted { fuel; undecided } ->
      check_int "fuel recorded" 1 fuel;
      check_int "nobody decided in one round" 5 (List.length undecided)
  | o ->
      Alcotest.fail
        (Format.asprintf "expected Budget_exhausted: %a" Fuzz.Outcome.pp o)

let test_harness_raised_contained () =
  match
    Fuzz.Harness.run_contained ~algo:Fuzz.Faulty.raising_init ~config:c41
      ~proposals:(props c41) quiet_es
  with
  | Fuzz.Outcome.Raised msg -> check_bool "message" true (contains msg "init")
  | o -> Alcotest.fail (Format.asprintf "expected Raised: %a" Fuzz.Outcome.pp o)

(* Raises in any round whose inbox is not exactly n envelopes, so random
   schedules mix runs that die mid-round, delayed messages still in
   flight, with clean ones. *)
module Lossy = struct
  type msg = unit
  type state = { n : int; v : Value.t; decision : Value.t option }

  let name = "lossy"
  let model = Sim.Model.Es
  let symmetric = false
  let init config _ v = { n = Config.n config; v; decision = None }
  let on_send _ _ = ()

  let on_receive st round inbox =
    if List.length inbox <> st.n then failwith "loss"
    else if Round.to_int round < 4 then st
    else { st with decision = Some st.v }

  let decision st = st.decision
  let halted st = st.decision <> None
  let wire_size () = 0
  let pp_msg ppf () = Format.fprintf ppf "()"
  let pp_state ppf st = Value.pp ppf st.v
end

(* One runner rewinds its arena from run to run, also after a run that
   died mid-round, and with new proposals each time: every outcome must
   equal a fresh [run_contained] call's. *)
let test_runner_reuse () =
  let algo = Sim.Algorithm.Packed (module Lossy) in
  let run = Fuzz.Harness.runner ~algo ~config:c52 in
  let rng = Rng.create ~seed:11 in
  let classes =
    List.init 30 (fun i ->
        let s = if i mod 3 = 2 then quiet_es else Fuzz.Campaign.default_gen c52 rng in
        let proposals =
          if i mod 2 = 0 then props c52 else Sim.Runner.uniform_proposals c52 Value.one
        in
        let o = run ~proposals s in
        check_bool (Printf.sprintf "run %d" i) true
          (o = Fuzz.Harness.run_contained ~algo ~config:c52 ~proposals s);
        class_of o)
  in
  check_bool "crashed and clean runs" true
    (List.mem (Some Fuzz.Outcome.Crash) classes && List.mem None classes)

(* The monitor aborts the eager FloodSet's split decision at the violating
   round — before the run completes. *)
let test_monitor_aborts_early () =
  let chain = Workload.Cascade.chain c52 in
  match Fuzz.Harness.run ~algo:eager ~config:c52 ~proposals:(props c52) chain with
  | Fuzz.Outcome.Violated { round; violations = [ Sim.Props.Agreement _ ] } ->
      check_int "aborted at the deciding round" 2 round
  | o ->
      Alcotest.fail
        (Format.asprintf "expected an agreement violation: %a" Fuzz.Outcome.pp
           o)

(* ------------------------------------------------------------------ *)
(* qcheck: monitor verdict == post-hoc Props verdict                   *)

let prop_monitor_agrees_with_posthoc =
  qtest ~count:60 "online monitor == post-hoc Props.check"
    QCheck.(pair (int_bound 99999) (int_bound 2))
    (fun (seed, which) ->
      let algo = List.nth [ at2; floodset; eager ] which in
      let rng = Rng.create ~seed in
      let schedule = Fuzz.Campaign.default_gen c52 rng in
      let proposals = props c52 in
      let online =
        Fuzz.Harness.run ~algo ~config:c52 ~proposals schedule
      in
      match class_of online with
      | Some Fuzz.Outcome.Crash -> false (* none of these algorithms raise *)
      | verdict -> (
          let posthoc =
            Sim.Props.check_agreement
              (Sim.Runner.run algo c52 ~proposals schedule)
          in
          let has p = List.exists p posthoc in
          match verdict with
          | Some Fuzz.Outcome.Agreement ->
              has (function Sim.Props.Agreement _ -> true | _ -> false)
          | Some Fuzz.Outcome.Validity ->
              has (function Sim.Props.Validity _ -> true | _ -> false)
          (* fuel and liveness outcomes must be safety-clean: the monitor
             saw every decision the full run produced *)
          | None | Some Fuzz.Outcome.Termination | Some Fuzz.Outcome.Fuel ->
              posthoc = []
          | Some Fuzz.Outcome.Crash -> false))

(* ------------------------------------------------------------------ *)
(* qcheck: shrinking preserves validity and the failure class          *)

let prop_shrink_preserves_class =
  qtest ~count:25 "shrunken schedules validate and keep their class"
    QCheck.(int_bound 99999)
    (fun seed ->
      let rng = Rng.create ~seed in
      let base = Workload.Cascade.chain c52 in
      let schedule = Workload.Mutate.generator ~base c52 rng in
      let proposals = props c52 in
      let original =
        class_of (Fuzz.Harness.run ~algo:eager ~config:c52 ~proposals schedule)
      in
      match
        Fuzz.Shrink.shrink ~algo:eager ~config:c52 ~proposals schedule
      with
      | None -> original = None
      | Some r ->
          Some r.Fuzz.Shrink.failure = original
          && Sim.Schedule.validate c52 r.Fuzz.Shrink.schedule = Ok ()
          && class_of
               (Fuzz.Harness.run ~algo:eager ~config:c52 ~proposals
                  r.Fuzz.Shrink.schedule)
             = original)

(* qcheck: Mutate only emits schedules the model validator accepts. *)
let prop_mutate_valid =
  qtest ~count:100 "mutated schedules always validate"
    QCheck.(int_bound 99999)
    (fun seed ->
      let rng = Rng.create ~seed in
      let base =
        if Rng.bool rng then Workload.Cascade.chain c52
        else Workload.Random_runs.synchronous rng c52 ()
      in
      let s = Workload.Mutate.generator ~base c52 rng in
      Sim.Schedule.validate c52 s = Ok ())

(* ------------------------------------------------------------------ *)
(* Omission faults: monitor exclusion, harness survival, shrinking      *)

(* The monitor judges agreement among non-omitters only: an omitter's
   divergent decision neither anchors nor trips it, while validity still
   applies to everyone. *)
let test_monitor_omitter_exclusion () =
  let proposals = props c41 in
  let d pid value =
    {
      Sim.Trace.pid = Pid.of_int pid;
      round = Round.of_int 2;
      value = Value.of_int value;
    }
  in
  let omitters = Pid.Set.of_ints [ 1 ] in
  (* the omitter disagrees with the anchor: no agreement violation *)
  let m = Fuzz.Monitor.create ~omitters ~proposals () in
  let m = Fuzz.Monitor.observe_all m [ d 2 2; d 1 1 ] in
  check_bool "omitter disagreement tolerated" false (Fuzz.Monitor.tripped m);
  (* a correct process disagreeing still trips it *)
  let m = Fuzz.Monitor.observe m (d 3 1) in
  check_bool "correct disagreement trips" true (Fuzz.Monitor.tripped m);
  check_bool "as an agreement violation" true
    (match Fuzz.Monitor.violation m with
    | Some (Sim.Props.Agreement _) -> true
    | _ -> false);
  (* the omitter never anchors: its early decision binds nobody *)
  let m2 = Fuzz.Monitor.create ~omitters ~proposals () in
  let m2 = Fuzz.Monitor.observe_all m2 [ d 1 1; d 2 2; d 3 2 ] in
  check_bool "omitter decision does not anchor" false
    (Fuzz.Monitor.tripped m2);
  (* validity still holds omitters to account *)
  let m3 = Fuzz.Monitor.create ~omitters ~proposals () in
  let m3 = Fuzz.Monitor.observe m3 (d 1 99) in
  check_bool "omitter validity checked" true
    (match Fuzz.Monitor.violation m3 with
    | Some (Sim.Props.Validity _) -> true
    | _ -> false)

(* FloodSet survives pure receive-omissions: a receive-omitter only
   starves itself, and its own (possibly divergent) decision is excluded
   from the agreement judgment — the e13 asymmetry, via the harness. *)
let test_harness_recv_omit_starvation () =
  let starved =
    Sim.Schedule.make
      ~omitters:[ (Pid.of_int 4, Sim.Model.Recv_omit) ]
      ~model:Sim.Model.Es ~gst:Round.first
      [
        { Sim.Schedule.empty_plan with
          lost = [ (Pid.of_int 1, Pid.of_int 4);
                   (Pid.of_int 2, Pid.of_int 4);
                   (Pid.of_int 3, Pid.of_int 4) ] };
        { Sim.Schedule.empty_plan with
          lost = [ (Pid.of_int 1, Pid.of_int 4);
                   (Pid.of_int 2, Pid.of_int 4);
                   (Pid.of_int 3, Pid.of_int 4) ] };
      ]
  in
  assert_valid c41 starved;
  match
    Fuzz.Harness.run ~algo:floodset ~config:c41 ~proposals:(props c41) starved
  with
  | Fuzz.Outcome.Passed _ -> ()
  | o ->
      Alcotest.fail
        (Format.asprintf "expected Passed under recv-omission: %a"
           Fuzz.Outcome.pp o)

(* A send-omission counterexample from the exhaustive sweep shrinks to a
   1-minimal schedule that keeps its omitter declaration: the fault is
   essential, so no reduction may drop it. *)
let test_shrink_omission_minimal () =
  let faults = Sim.Model.Send_omit_only in
  let proposals = props c41 in
  let r = Mc.Exhaustive.sweep ~faults ~algo:floodset ~config:c41 ~proposals () in
  let choices, _ =
    match r.Mc.Exhaustive.violations with
    | w :: _ -> w
    | [] -> Alcotest.fail "send-omit sweep must find FloodSet violations"
  in
  let budget = Mc.Serial.budget_of ~faults c41 in
  let witness = Mc.Serial.to_schedule ?budget c41 choices in
  match Fuzz.Shrink.shrink ~algo:floodset ~config:c41 ~proposals witness with
  | None -> Alcotest.fail "witness must fail under the harness"
  | Some rep ->
      check_bool "agreement preserved" true
        (rep.Fuzz.Shrink.failure = Fuzz.Outcome.Agreement);
      assert_valid c41 rep.Fuzz.Shrink.schedule;
      check_int "the omitter survives shrinking" 1
        (Sim.Schedule.omit_count rep.Fuzz.Shrink.schedule);
      check_int "no crash is needed" 0
        (Sim.Schedule.crash_count rep.Fuzz.Shrink.schedule);
      (* 1-minimality: a second shrink is a fixpoint *)
      (match
         Fuzz.Shrink.shrink ~algo:floodset ~config:c41 ~proposals
           rep.Fuzz.Shrink.schedule
       with
      | Some again -> check_int "fixpoint" 0 again.Fuzz.Shrink.steps
      | None -> Alcotest.fail "shrunken schedule must still fail")

(* The omission generator and the omission-aware mutation operators only
   emit schedules the validator accepts, whatever the menu. *)
let prop_omission_workloads_valid =
  qtest ~count:100 "omission generator and mutations validate"
    QCheck.(pair (int_bound 99999) (int_bound 2))
    (fun (seed, menu) ->
      let faults =
        match menu with
        | 0 -> Sim.Model.Send_omit_only
        | 1 -> Sim.Model.Recv_omit_only
        | _ -> Sim.Model.Mixed
      in
      let rng = Rng.create ~seed in
      let base = Workload.Random_runs.with_omissions rng c52 ~faults () in
      let mutated = Workload.Mutate.generator ~base c52 rng in
      Sim.Schedule.validate c52 base = Ok ()
      && Sim.Schedule.validate c52 mutated = Ok ())

(* ------------------------------------------------------------------ *)
(* Shrinking the chain seed: the acceptance criterion                  *)

let test_shrink_chain_minimal () =
  let chain = Workload.Cascade.chain c52 in
  let proposals = props c52 in
  match Fuzz.Shrink.shrink ~algo:eager ~config:c52 ~proposals chain with
  | None -> Alcotest.fail "eager FloodSet must fail on the chain cascade"
  | Some r ->
      check_bool "agreement preserved" true
        (r.Fuzz.Shrink.failure = Fuzz.Outcome.Agreement);
      assert_valid c52 r.Fuzz.Shrink.schedule;
      check_bool "still violates" true
        (class_of
           (Fuzz.Harness.run ~algo:eager ~config:c52 ~proposals
              r.Fuzz.Shrink.schedule)
        = Some Fuzz.Outcome.Agreement);
      (* 1-minimality: the shrunken schedule is a fixpoint — a second
         shrink finds nothing left to remove. *)
      (match
         Fuzz.Shrink.shrink ~algo:eager ~config:c52 ~proposals
           r.Fuzz.Shrink.schedule
       with
      | Some again -> check_int "fixpoint" 0 again.Fuzz.Shrink.steps
      | None -> Alcotest.fail "shrunken schedule must still fail");
      (* Both cascade crashes are essential to split the eager decision. *)
      check_int "both crashes kept" 2
        (Sim.Schedule.crash_count r.Fuzz.Shrink.schedule)

(* Two mutation-plus-shrink campaigns, pinned: the findings, the accepted
   reductions and every candidate the shrinker tried. The attempts total
   moves whenever the shrinker's candidate order does, and the findings
   whenever a mutation draw does. *)
let test_mutation_campaigns_pinned () =
  let pin label ~algo ~config ~base ~runs ~findings ~steps ~attempts =
    let r =
      Fuzz.Campaign.run ~shrink:true ~seed:42 ~runs ~algo ~config
        ~proposals:(props config)
        ~gen:(Fuzz.Campaign.mutation_gen ~base)
        ()
    in
    check_int (label ^ ": findings") findings
      (List.length r.Fuzz.Campaign.findings);
    check_int (label ^ ": shrink steps") steps r.Fuzz.Campaign.shrink_steps;
    check_int (label ^ ": shrink attempts") attempts
      (List.fold_left
         (fun acc (f : Fuzz.Campaign.finding) ->
           match f.Fuzz.Campaign.shrunk with
           | Some s -> acc + s.Fuzz.Shrink.attempts
           | None -> acc)
         0 r.Fuzz.Campaign.findings)
  in
  pin "eager-floodset around the chain" ~algo:eager ~config:c52
    ~base:(Workload.Cascade.chain c52) ~runs:120 ~findings:28 ~steps:51
    ~attempts:631;
  (* test/golden/floodset_sendomit.sched *)
  pin "FloodSet around a send-omission" ~algo:floodset ~config:c41
    ~base:
      (Sim.Codec.decode_exn
         "schedule SCS gst=1 omit=p1:send budget=0+1\n\
          round 1: lose p1->p2 p1->p3 p1->p4\n\
          round 2: lose p1->p3 p1->p4\n")
    ~runs:600 ~findings:80 ~steps:35 ~attempts:805

(* ------------------------------------------------------------------ *)
(* Campaigns                                                           *)

let report_equal (a : Fuzz.Campaign.report) (b : Fuzz.Campaign.report) =
  a.Fuzz.Campaign.runs = b.Fuzz.Campaign.runs
  && a.Fuzz.Campaign.skipped = b.Fuzz.Campaign.skipped
  && a.Fuzz.Campaign.passed = b.Fuzz.Campaign.passed
  && a.Fuzz.Campaign.findings = b.Fuzz.Campaign.findings
  && a.Fuzz.Campaign.shrink_steps = b.Fuzz.Campaign.shrink_steps

(* The [ipi fuzz-worker] invocation that builds the same campaign: [gen]
   and [extra] are the `ipi fuzz` flags naming the test's generator. *)
let fuzz_worker ~algo ~config ~seed ~runs ?(gen = "mix") ?(extra = []) () =
  [
    ipi_exe;
    "fuzz-worker";
    "-a";
    ipi_label algo;
    "-n";
    string_of_int (Config.n config);
    "-t";
    string_of_int (Config.t config);
    "--seed";
    string_of_int seed;
    "--runs";
    string_of_int runs;
    "--gen";
    gen;
  ]
  @ extra

(* A 40-run campaign at (5,2): with one run per task, every worker gets
   several tasks. *)
let campaign ?(shrink = true) ?worker ~jobs ~algo ~gen ~seed () =
  let worker_argv =
    Option.map
      (fun (gen, extra) ->
        fuzz_worker ~algo ~config:c52 ~seed ~runs:40 ~gen ~extra ())
      worker
  in
  Fuzz.Campaign.run ~jobs ?worker_argv ~shrink ~seed ~runs:40 ~algo
    ~config:c52 ~proposals:(props c52) ~gen ()

let mutate_chain = ("mutate", [ "--base"; "chain" ])

let prop_campaign_jobs_deterministic =
  qtest ~count:4 "campaign reports bit-identical across jobs"
    QCheck.(int_bound 9999)
    (fun seed ->
      let run jobs =
        campaign ~worker:mutate_chain ~jobs ~algo:eager
          ~gen:(Fuzz.Campaign.mutation_gen ~base:(Workload.Cascade.chain c52))
          ~seed ()
      in
      let r1 = run 1 and r2 = run 2 and r4 = run 4 in
      (* The mutation campaign around the cascade must actually find
         violations, or this property tests nothing. *)
      r1.Fuzz.Campaign.findings <> []
      && report_equal r1 r2 && report_equal r1 r4)

(* The raising fixtures on worker processes: contained there, rebuilt
   here, and the same report as in process. *)
let contained_campaign ~jobs algo =
  let run jobs =
    campaign ~shrink:false ~worker:("mix", []) ~jobs ~algo
      ~gen:Fuzz.Campaign.default_gen ~seed:11 ()
  in
  let serial = run 1 and r = run jobs in
  check_bool
    (Printf.sprintf "%d workers report what one process does" jobs)
    true (report_equal serial r);
  r

let test_campaign_contains_crashes () =
  let r = contained_campaign ~jobs:2 (Fuzz.Faulty.raising ~at:2) in
  check_int "campaign completed every run" 40 r.Fuzz.Campaign.runs;
  check_int "every run is a finding" 40 (List.length r.Fuzz.Campaign.findings);
  List.iter
    (fun (f : Fuzz.Campaign.finding) ->
      match f.Fuzz.Campaign.outcome with
      | Fuzz.Outcome.Crashed e ->
          check_int "round context" 2 (Round.to_int e.Sim.Engine.round)
      | o ->
          Alcotest.fail
            (Format.asprintf "expected Crashed: %a" Fuzz.Outcome.pp o))
    r.Fuzz.Campaign.findings

let test_campaign_contains_raised () =
  let r = contained_campaign ~jobs:4 Fuzz.Faulty.raising_init in
  check_int "campaign survived an uncontained raiser" 40 r.Fuzz.Campaign.runs;
  check_bool "all findings are Raised" true
    (List.for_all
       (fun (f : Fuzz.Campaign.finding) ->
         match f.Fuzz.Campaign.outcome with
         | Fuzz.Outcome.Raised _ -> true
         | _ -> false)
       r.Fuzz.Campaign.findings)

let test_campaign_metrics () =
  let m = Obs.Metrics.create () in
  let _ =
    Fuzz.Campaign.run ~metrics:m ~shrink:true ~seed:5 ~runs:30 ~algo:eager
      ~config:c52 ~proposals:(props c52)
      ~gen:(Fuzz.Campaign.mutation_gen ~base:(Workload.Cascade.chain c52))
      ()
  in
  check_bool "fuzz.runs" true (Obs.Metrics.find_counter m "fuzz.runs" = Some 30);
  check_bool "fuzz.violations counted" true
    (match Obs.Metrics.find_counter m "fuzz.violations" with
    | Some v -> v > 0
    | None -> false);
  check_bool "fuzz.shrink_steps counted" true
    (match Obs.Metrics.find_counter m "fuzz.shrink_steps" with
    | Some v -> v > 0
    | None -> false)

(* The schedule stream is drawn lazily: one draw per executed run, none
   once the budget has expired, and none after a draw raised. [counting]
   is the default generator, counting its draws; with [fail_at] that draw
   raises [Draw_failed] instead. *)
exception Draw_failed

let counting ?(fail_at = 0) () =
  let draws = ref 0 in
  let gen config rng =
    incr draws;
    if !draws = fail_at then raise Draw_failed;
    Fuzz.Campaign.default_gen config rng
  in
  (gen, draws)

let test_campaign_budget_skips () =
  let gen, draws = counting () in
  let run ?worker_argv jobs =
    Fuzz.Campaign.run ~jobs ?worker_argv ~budget_s:(-1.0) ~seed:5 ~runs:25
      ~algo:at2 ~config:c52 ~proposals:(props c52) ~gen ()
  in
  let r = run 1 in
  check_int "nothing executed" 0 r.Fuzz.Campaign.runs;
  check_int "everything skipped" 25 r.Fuzz.Campaign.skipped;
  check_int "no schedule drawn" 0 !draws;
  let r =
    run 2
      ~worker_argv:(fuzz_worker ~algo:at2 ~config:c52 ~seed:5 ~runs:25 ())
  in
  check_int "nothing executed on workers" 0 r.Fuzz.Campaign.runs;
  check_int "everything skipped on workers" 25 r.Fuzz.Campaign.skipped;
  check_int "no schedule drawn here" 0 !draws

(* A worker that reads a task frame it cannot run dies with a non-zero
   exit, so the supervisor sees a death, not silence. *)
let test_fuzz_worker_malformed_frame () =
  List.iter
    (fun (name, frame) ->
      let argv = fuzz_worker ~algo:at2 ~config:c52 ~seed:5 ~runs:25 () in
      let ((out, inp, err) as chans) =
        Unix.open_process_args_full ipi_exe (Array.of_list argv)
          (Unix.environment ())
      in
      Obs.Wire.write inp frame;
      close_out inp;
      let stdout = In_channel.input_all out in
      let stderr = In_channel.input_all err in
      let code =
        match Unix.close_process_full chans with
        | Unix.WEXITED c -> c
        | _ -> -1
      in
      check_bool (name ^ ": non-zero exit") true (code <> 0);
      check_string (name ^ ": no result frame") "" stdout;
      check_bool (name ^ ": says why") true
        (contains stderr "malformed task frame"))
    [
      ("no task", Obs.Json.Obj [ ("job", Obs.Json.Int 0) ]);
      ("task not a number", Obs.Json.Obj [ ("task", Obs.Json.String "0") ]);
      ("task out of range", Obs.Json.Obj [ ("task", Obs.Json.Int 25) ]);
    ]

(* A closure cannot reach an exec'd worker, so these two run in process. *)
let test_campaign_draws_once_per_run () =
  let gen, draws = counting () in
  let r = campaign ~shrink:false ~jobs:1 ~algo:at2 ~gen ~seed:5 () in
  check_int "every run executed" 40 r.Fuzz.Campaign.runs;
  check_int "one draw per run" 40 !draws

let test_campaign_generator_raises () =
  let gen, draws = counting ~fail_at:10 () in
  Alcotest.check_raises "the draw's exception leaves the campaign" Draw_failed
    (fun () ->
      ignore (campaign ~shrink:false ~jobs:1 ~algo:at2 ~gen ~seed:5 ()));
  check_int "no draw after the raise" 10 !draws

(* Seeded omission campaigns: A(t+2) survives the mixed menu (indulgence
   covers omissions), the campaign is bit-identical across --jobs, and a
   FloodSet send-omission campaign's findings all shrink to schedules
   whose violation is licensed by a declared omitter. *)
let test_campaign_omissions () =
  let gen faults config rng =
    Workload.Random_runs.with_omissions rng config ~faults ()
  in
  let at2_run jobs =
    Fuzz.Campaign.run ~jobs
      ~worker_argv:
        (fuzz_worker ~algo:at2 ~config:c52 ~seed:42 ~runs:80
           ~extra:[ "--faults"; "mixed" ] ())
      ~shrink:true ~seed:42 ~runs:80 ~algo:at2 ~config:c52
      ~proposals:(props c52) ~gen:(gen Sim.Model.Mixed) ()
  in
  let r1 = at2_run 1 and r4 = at2_run 4 in
  check_int "A(t+2) clean under mixed omissions" 0
    (List.length r1.Fuzz.Campaign.findings);
  check_bool "bit-identical across jobs" true (report_equal r1 r4);
  let fs =
    Fuzz.Campaign.run ~shrink:true ~seed:42 ~runs:600 ~algo:floodset
      ~config:c41 ~proposals:(props c41)
      ~gen:(gen Sim.Model.Send_omit_only) ()
  in
  check_bool "floodset campaign finds send-omit violations" true
    (fs.Fuzz.Campaign.findings <> []);
  List.iter
    (fun (f : Fuzz.Campaign.finding) ->
      check_bool "every finding keeps its omitter" true
        (Sim.Schedule.omit_count f.Fuzz.Campaign.schedule > 0))
    fs.Fuzz.Campaign.findings

let test_campaign_json_roundtrips () =
  let r =
    campaign ~jobs:1 ~algo:eager
      ~gen:(Fuzz.Campaign.mutation_gen ~base:(Workload.Cascade.chain c52))
      ~seed:3 ()
  in
  let json = Obs.Json.to_string (Fuzz.Campaign.to_json r) in
  match Obs.Json.of_string json with
  | Error e -> Alcotest.fail ("report JSON must parse: " ^ e)
  | Ok tree ->
      let findings =
        match Obs.Json.member "findings" tree with
        | Some l -> Option.value ~default:[] (Obs.Json.to_list_opt l)
        | None -> []
      in
      check_int "findings serialized" (List.length r.Fuzz.Campaign.findings)
        (List.length findings);
      (* Every embedded schedule must decode back through the codec. *)
      List.iter
        (fun f ->
          match Obs.Json.member "schedule" f with
          | Some (Obs.Json.String s) -> (
              match Sim.Codec.decode s with
              | Ok _ -> ()
              | Error e -> Alcotest.fail ("embedded schedule: " ^ e))
          | _ -> Alcotest.fail "finding without schedule")
        findings

let () =
  Alcotest.run "fuzz"
    [
      ( "containment",
        [
          Alcotest.test_case "engine wraps raising callbacks" `Quick
            test_engine_step_error;
          Alcotest.test_case "harness: crashed" `Quick test_harness_crashed;
          Alcotest.test_case "harness: raised (init)" `Quick
            test_harness_raised_contained;
          Alcotest.test_case "runner reuse equals fresh runs" `Quick
            test_runner_reuse;
          Alcotest.test_case "campaign: crashes contained" `Quick
            test_campaign_contains_crashes;
          Alcotest.test_case "campaign: raised contained" `Quick
            test_campaign_contains_raised;
        ] );
      ( "monitor",
        [
          Alcotest.test_case "harness: passed" `Quick test_harness_passed;
          Alcotest.test_case "harness: budget exhausted" `Quick
            test_harness_budget;
          Alcotest.test_case "aborts at the violating round" `Quick
            test_monitor_aborts_early;
          prop_monitor_agrees_with_posthoc;
        ] );
      ( "shrink",
        [
          Alcotest.test_case "chain shrinks to a 1-minimal witness" `Quick
            test_shrink_chain_minimal;
          Alcotest.test_case "mutation campaigns pinned" `Quick
            test_mutation_campaigns_pinned;
          prop_shrink_preserves_class;
          prop_mutate_valid;
        ] );
      ( "omissions",
        [
          Alcotest.test_case "monitor excludes omitters from agreement" `Quick
            test_monitor_omitter_exclusion;
          Alcotest.test_case "recv-omission starvation passes" `Quick
            test_harness_recv_omit_starvation;
          Alcotest.test_case "send-omission witness shrinks 1-minimal" `Quick
            test_shrink_omission_minimal;
          prop_omission_workloads_valid;
          Alcotest.test_case "omission campaigns" `Quick
            test_campaign_omissions;
        ] );
      ( "campaign",
        [
          prop_campaign_jobs_deterministic;
          Alcotest.test_case "metrics reported" `Quick test_campaign_metrics;
          Alcotest.test_case "wall budget skips runs" `Quick
            test_campaign_budget_skips;
          Alcotest.test_case "fuzz-worker refuses a malformed frame" `Quick
            test_fuzz_worker_malformed_frame;
          Alcotest.test_case "one draw per run" `Quick
            test_campaign_draws_once_per_run;
          Alcotest.test_case "raising generator stops the campaign" `Quick
            test_campaign_generator_raises;
          Alcotest.test_case "JSON report roundtrips" `Quick
            test_campaign_json_roundtrips;
        ] );
    ]
