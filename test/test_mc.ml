open Kernel
open Helpers

let c31 = config ~n:3 ~t:1
let c41 = config ~n:4 ~t:1
let c52 = config ~n:5 ~t:2

(* ------------------------------------------------------------------ *)
(* Serial                                                              *)

let test_serial_choices () =
  let alive = Pid.Set.universe ~n:3 in
  let all =
    Mc.Serial.choices ~policy:Mc.Serial.All_subsets ~alive ~crashes_left:1 ()
  in
  (* no-crash + 3 victims x 2^2 subsets *)
  check_int "all-subsets branching" 13 (List.length all);
  let pre =
    Mc.Serial.choices ~policy:Mc.Serial.Prefixes ~alive ~crashes_left:1 ()
  in
  (* no-crash + 3 victims x 3 prefixes *)
  check_int "prefix branching" 10 (List.length pre);
  let none =
    Mc.Serial.choices ~policy:Mc.Serial.Prefixes ~alive ~crashes_left:0 ()
  in
  check_int "no budget" 1 (List.length none)

let test_serial_enumerate_count () =
  (* depth 1: exactly the branching factor *)
  check_int "depth 1" 13
    (Oracle.count ~policy:Mc.Serial.All_subsets c31 ~horizon:1);
  (* depth 2 with budget 1: crash in round 1 leaves only No_crash after *)
  check_int "depth 2" (12 + 13)
    (Oracle.count ~policy:Mc.Serial.All_subsets c31 ~horizon:2)

(* Closed-form count of serial choice sequences: with [a] alive processes
   and [b] crashes left, a round offers 1 no-crash choice plus (for each of
   the [a] victims) one receiver set per policy —

     C(a, b, 0) = 1
     C(a, b, h) = C(a, b, h-1) + branch(a) * C(a-1, b-1, h-1)   if b > 0
     C(a, 0, h) = 1

   where branch(a) = a * a for Prefixes (a victims x a survivor prefixes,
   empty included) and a * 2^(a-1) for All_subsets. *)
let rec closed_form ~branch a b h =
  if h = 0 then 1
  else
    closed_form ~branch a b (h - 1)
    + (if b > 0 then branch a * closed_form ~branch (a - 1) (b - 1) (h - 1)
       else 0)

let test_serial_count_closed_form () =
  List.iter
    (fun (policy, pol_name, branch) ->
      List.iter
        (fun (n, t, h) ->
          check_int
            (Printf.sprintf "%s n=%d t=%d h=%d" pol_name n t h)
            (closed_form ~branch n t h)
            (Oracle.count ~policy (config ~n ~t) ~horizon:h))
        [ (3, 1, 1); (3, 1, 3); (4, 1, 3); (4, 2, 3); (5, 1, 2); (5, 2, 4) ])
    [
      (Mc.Serial.Prefixes, "prefixes", fun a -> a * a);
      (Mc.Serial.All_subsets, "all-subsets", fun a -> a * (1 lsl (a - 1)));
    ]

let test_serial_to_schedule () =
  let choices =
    [
      Mc.Serial.Crash
        { victim = Pid.of_int 1; receivers = Pid.Set.of_ints [ 2 ] };
      Mc.Serial.No_crash;
    ]
  in
  let s = Mc.Serial.to_schedule c31 choices in
  assert_valid c31 s;
  check_bool "synchronous" true (Sim.Schedule.synchronous s);
  check_bool "loses to p3" true
    (Sim.Schedule.fate s ~src:(Pid.of_int 1) ~dst:(Pid.of_int 3)
       ~round:Round.first
    = Sim.Schedule.Lost);
  check_bool "keeps p2" true
    (Sim.Schedule.fate s ~src:(Pid.of_int 1) ~dst:(Pid.of_int 2)
       ~round:Round.first
    = Sim.Schedule.Same_round)

let prop_serial_schedules_valid =
  qtest ~count:1 "every enumerated serial schedule validates" QCheck.unit
    (fun () ->
      let ok = ref true in
      Oracle.enumerate ~policy:Mc.Serial.All_subsets c31 ~horizon:3
        ~f:(fun choices ->
          match
            Sim.Schedule.validate c31 (Mc.Serial.to_schedule c31 choices)
          with
          | Ok () -> ()
          | Error _ -> ok := false);
      !ok)

(* ------------------------------------------------------------------ *)
(* Exhaustive                                                          *)

let test_exhaustive_floodset () =
  let r =
    Oracle.sweep ~policy:Mc.Serial.All_subsets ~algo:floodset
      ~config:c31
      ~proposals:(Sim.Runner.distinct_proposals c31)
      ()
  in
  check_int "min = t+1" 2 r.Mc.Exhaustive.min_decision;
  check_int "max = t+1" 2 r.Mc.Exhaustive.max_decision;
  check_bool "no violations" true (r.Mc.Exhaustive.violations = []);
  check_int "no undecided" 0 r.Mc.Exhaustive.undecided_runs

let test_exhaustive_at2 () =
  let r = Oracle.sweep_binary ~algo:at2 ~config:c41 () in
  check_int "min = t+2" 3 r.Mc.Exhaustive.min_decision;
  check_int "max = t+2" 3 r.Mc.Exhaustive.max_decision;
  check_bool "no violations" true (r.Mc.Exhaustive.violations = []);
  check_bool "many runs" true (r.Mc.Exhaustive.runs > 500)

(* ------------------------------------------------------------------ *)
(* The sweep driver == the oracle                                       *)

(* Field-by-field equality, violation order included — "bit-identical" is
   the correctness anchor of the driver. *)
let result_equal (a : Mc.Exhaustive.result) (b : Mc.Exhaustive.result) =
  a.Mc.Exhaustive.runs = b.Mc.Exhaustive.runs
  && a.Mc.Exhaustive.max_decision = b.Mc.Exhaustive.max_decision
  && a.Mc.Exhaustive.min_decision = b.Mc.Exhaustive.min_decision
  && a.Mc.Exhaustive.max_witness = b.Mc.Exhaustive.max_witness
  && a.Mc.Exhaustive.undecided_runs = b.Mc.Exhaustive.undecided_runs
  && a.Mc.Exhaustive.violations = b.Mc.Exhaustive.violations
  && a.Mc.Exhaustive.crashed = b.Mc.Exhaustive.crashed
  && a.Mc.Exhaustive.shard_failures = b.Mc.Exhaustive.shard_failures
  && a.Mc.Exhaustive.expired = b.Mc.Exhaustive.expired
  && a.Mc.Exhaustive.valency = b.Mc.Exhaustive.valency

let run_ok name = function
  | Ok r -> r
  | Error msg -> Alcotest.fail (name ^ ": " ^ msg)

let sweep ?executor ?deadline name spec =
  run_ok name (Mc.Distrib.run ?executor ?deadline spec)

(* Each executor for a given spec: in process, and two `ipi sweep-worker`
   processes that build the same spec. *)
let executors =
  [
    ("serial", fun _ -> Mc.Distrib.In_process);
    ("workers=2", fun spec -> on_workers spec);
  ]

let unreduced = [ ("none", Mc.Distrib.Rnone) ]
let reduced = [ ("dedup", Mc.Distrib.Rdedup); ("dedup+sym", Mc.Distrib.Rsym) ]

let fixed config = Mc.Distrib.Fixed (Sim.Runner.distinct_proposals config)

(* The oracle run over the same scope as [spec]. *)
let oracle (spec : Mc.Distrib.spec) =
  let { Mc.Distrib.faults; omit_budget; policy; horizon; algo; config; _ } =
    spec
  in
  match spec.scope with
  | Mc.Distrib.Fixed proposals ->
      Oracle.sweep ~faults ?omit_budget ~policy ?horizon ~algo ~config
        ~proposals ()
  | Mc.Distrib.Binary ->
      Oracle.sweep_binary ~faults ?omit_budget ~policy ?horizon ~algo
        ~config ()

(* A driver run against the oracle: bit-identical, except that orbit tasks
   keep one witness list per orbit, so there the aggregates must match
   and the orbit-weighted list lengths must add up to the oracle's. *)
let check_against_oracle tag (spec : Mc.Distrib.spec) ~oracle
    (r : Mc.Distrib.run) =
  let res = r.Mc.Distrib.result in
  let orbits =
    spec.reduce = Mc.Distrib.Rsym
    && spec.scope = Mc.Distrib.Binary
    && Sim.Algorithm.symmetric spec.algo
  in
  if not orbits then
    check_bool (tag ^ ": == oracle") true (result_equal oracle res)
  else begin
    check_int (tag ^ ": runs") oracle.Mc.Exhaustive.runs res.Mc.Exhaustive.runs;
    check_int (tag ^ ": max") oracle.Mc.Exhaustive.max_decision
      res.Mc.Exhaustive.max_decision;
    check_int (tag ^ ": min") oracle.Mc.Exhaustive.min_decision
      res.Mc.Exhaustive.min_decision;
    check_int (tag ^ ": undecided") oracle.Mc.Exhaustive.undecided_runs
      res.Mc.Exhaustive.undecided_runs;
    check_int (tag ^ ": frontier")
      (Mc.Exhaustive.frontier oracle)
      (Mc.Exhaustive.frontier res);
    let weighted f =
      List.fold_left
        (fun acc (e : Mc.Checkpoint.entry) ->
          acc
          + Mc.Symmetry.choose
              (Config.n spec.config)
              e.Mc.Checkpoint.task
            * List.length (f e.Mc.Checkpoint.result))
        0 r.Mc.Distrib.completed
    in
    check_int
      (tag ^ ": orbit-weighted violations")
      (List.length oracle.Mc.Exhaustive.violations)
      (weighted (fun r -> r.Mc.Exhaustive.violations));
    check_int
      (tag ^ ": orbit-weighted crashed")
      (List.length oracle.Mc.Exhaustive.crashed)
      (weighted (fun r -> r.Mc.Exhaustive.crashed))
  end;
  check_bool (tag ^ ": explored <= runs") true
    (res.Mc.Exhaustive.distinct_runs <= res.Mc.Exhaustive.runs);
  if spec.reduce = Mc.Distrib.Rnone then begin
    check_bool (tag ^ ": unreduced explores every run") true
      (res.Mc.Exhaustive.distinct_runs = res.Mc.Exhaustive.runs);
    check_bool (tag ^ ": unreduced has no stats") true (r.Mc.Distrib.stats = None)
  end

(* Healthy algorithms plus the violating and the crashing fixture: the
   reductions must reproduce violations and contained errors too, not just
   clean sweeps. *)
let reduction_fixtures =
  [
    (floodset, "floodset", 4, 1);
    (floodset, "floodset", 4, 2);
    (at2, "at2", 4, 1);
    (af2, "af2", 4, 1);
    (Fuzz.Faulty.eager_floodset, "eager", 4, 1);
    (Fuzz.Faulty.raising ~at:2, "raising@2", 4, 1);
    (floodmin, "floodmin", 4, 2);
  ]

let both_policies = [ (Mc.Serial.Prefixes, "pfx"); (Mc.Serial.All_subsets, "all") ]

(* One row per sweep shape, with the aggregates pinned where a number is
   known from the paper's experiments: (runs, violations, min, max). *)
let fixture_rows =
  List.concat_map
    (fun (policy, ptag) ->
      List.map
        (fun (algo, name, n, t) ->
          ( Printf.sprintf "%s n=%d t=%d %s" name n t ptag,
            Mc.Distrib.make ~policy ~algo (config ~n ~t) (fixed (config ~n ~t)),
            None ))
        reduction_fixtures)
    both_policies

let fixed_rows =
  let send_omit = Sim.Model.Send_omit_only in
  [
    ("at2 n=5 t=2", Mc.Distrib.make ~horizon:4 ~algo:at2 c52 (fixed c52), None);
    ( "raising@2 n=3 t=1 horizon 2",
      Mc.Distrib.make ~horizon:2 ~algo:(Fuzz.Faulty.raising ~at:2) c31
        (fixed c31),
      None );
    (* the e13 anchors: FloodSet breaks under send-omissions (its
       crash-free-round argument fails without a crash being spent),
       A(t+2) stays safe with its decision interval stretched past t+2 *)
    ( "floodset send-omit",
      Mc.Distrib.make ~faults:send_omit ~algo:floodset c41 (fixed c41),
      Some (253, 8, 2, 2) );
    ( "at2 send-omit",
      Mc.Distrib.make ~faults:send_omit ~algo:at2 c41 (fixed c41),
      Some (253, 0, 3, 7) );
    (* no round left to choose: one subtree, the whole tree *)
    ( "floodset horizon 0",
      Mc.Distrib.make ~horizon:0 ~algo:floodset c41 (fixed c41),
      Some (1, 0, 2, 2) );
  ]

let binary_rows =
  [
    ( "floodset mixed binary",
      Mc.Distrib.make ~faults:Sim.Model.Mixed ~algo:floodset c31
        Mc.Distrib.Binary,
      None );
    ("floodset binary", Mc.Distrib.make ~algo:floodset c41 Mc.Distrib.Binary, None);
    (* no round left to choose: one subtree per assignment *)
    ( "floodset binary horizon 0",
      Mc.Distrib.make ~horizon:0 ~algo:floodset c41 Mc.Distrib.Binary,
      Some (16, 0, 2, 2) );
    ("at2 binary", Mc.Distrib.make ~algo:at2 c41 Mc.Distrib.Binary, None);
    ( "eager binary",
      Mc.Distrib.make ~algo:Fuzz.Faulty.eager_floodset c41 Mc.Distrib.Binary,
      None );
    ( "raising@2 binary",
      Mc.Distrib.make ~algo:(Fuzz.Faulty.raising ~at:2) c41 Mc.Distrib.Binary,
      None );
  ]

(* Every row x reduction against the oracle on the serial executor, and
   every other executor against the serial one on every field, stats
   included. *)
let check_driver ?(executors = executors) ~reduces rows =
  List.iter
    (fun (row, (base : Mc.Distrib.spec), pin) ->
      let oracle = oracle base in
      (match pin with
      | None -> ()
      | Some (runs, violations, min, max) ->
          check_int (row ^ ": runs") runs oracle.Mc.Exhaustive.runs;
          check_int (row ^ ": violations") violations
            (List.length oracle.Mc.Exhaustive.violations);
          check_int (row ^ ": min decision") min oracle.Mc.Exhaustive.min_decision;
          check_int (row ^ ": max decision") max oracle.Mc.Exhaustive.max_decision);
      List.iter
        (fun (rtag, reduce) ->
          let spec = { base with Mc.Distrib.reduce } in
          let serial = sweep (row ^ " " ^ rtag) spec in
          check_against_oracle (row ^ " " ^ rtag ^ " serial") spec ~oracle
            serial;
          List.iter
            (fun (etag, executor) ->
              let tag = Printf.sprintf "%s %s %s" row rtag etag in
              let r = sweep ~executor:(executor spec) tag spec in
              check_bool (tag ^ ": == serial") true
                (result_equal serial.Mc.Distrib.result r.Mc.Distrib.result
                && serial.Mc.Distrib.result.Mc.Exhaustive.distinct_runs
                   = r.Mc.Distrib.result.Mc.Exhaustive.distinct_runs);
              check_bool (tag ^ ": stats == serial") true
                (serial.Mc.Distrib.stats = r.Mc.Distrib.stats);
              check_int (tag ^ ": edges") serial.Mc.Distrib.edges r.Mc.Distrib.edges)
            (List.tl executors))
        reduces)
    rows

(* Unreduced fixed-proposal sweeps: the driver == the oracle under every
   executor, and an exception outside the engine's containment fails every
   task the same way under every executor. *)
let test_sweep_determinism () =
  check_driver ~reduces:unreduced (fixture_rows @ fixed_rows);
  let spec =
    Mc.Distrib.make ~horizon:2 ~algo:Fuzz.Faulty.raising_init c31 (fixed c31)
  in
  let failures executor =
    (sweep ~executor "raising init" spec).Mc.Distrib.result
      .Mc.Exhaustive.shard_failures
  in
  let serial = failures Mc.Distrib.In_process in
  check_int "raising init fails all 10 tasks" 10 (List.length serial);
  check_bool "same shard failures under workers=2" true
    (serial = failures (on_workers spec))

let test_sweep_binary_determinism () =
  check_driver ~reduces:unreduced binary_rows

(* The transposition table, with and without orbits, reproduces the
   unreduced oracle on every observable field for the healthy, the
   violating and the crashing fixtures under both policies; only
   [distinct_runs] may shrink. *)
let test_dedup_equivalence () = check_driver ~reduces:reduced fixture_rows

(* Reduced sweeps are deterministic across executors: two worker
   processes equal the serial reduced sweep on every field, stats
   included, and the reduced binary sweep the ROADMAP pins holds under
   each executor. *)
let test_reduced_jobs_determinism () =
  check_driver ~reduces:reduced (fixed_rows @ binary_rows);
  let spec =
    Mc.Distrib.make ~reduce:Mc.Distrib.Rdedup ~algo:floodset c52
      Mc.Distrib.Binary
  in
  List.iter
    (fun (etag, executor) ->
      let r = sweep ~executor:(executor spec) ("pinned " ^ etag) spec in
      let pin what = Printf.sprintf "pinned %s %s" etag what in
      let res = r.Mc.Distrib.result in
      check_int (pin "runs") 80_032 res.Mc.Exhaustive.runs;
      check_int (pin "explored") 8_517 res.Mc.Exhaustive.distinct_runs;
      match r.Mc.Distrib.stats with
      | Some s ->
          check_int (pin "hits") 38_235 s.Mc.Dedup.hits;
          check_int (pin "lookups") 56_328 (s.Mc.Dedup.hits + s.Mc.Dedup.misses);
          check_int (pin "entries") 18_093 s.Mc.Dedup.entries;
          check_int (pin "snapshots") 9_576 s.Mc.Dedup.snapshots;
          check_int (pin "restores") 45_920 s.Mc.Dedup.restores
      | None -> Alcotest.fail (pin "stats: a dedup sweep reports them"))
    executors

(* The table's equivalence as a property over random binary proposal
   assignments (the rows above pin distinct proposals). *)
let prop_dedup_equivalent_on_random_proposals =
  qtest ~count:40 "dedup == unreduced on random binary assignments"
    QCheck.(triple (int_range 0 15) (int_range 0 6) bool)
    (fun (ones_mask, fixture, all_subsets) ->
      let algo, _, n, t = List.nth reduction_fixtures fixture in
      let policy =
        if all_subsets then Mc.Serial.All_subsets else Mc.Serial.Prefixes
      in
      let config = config ~n ~t in
      let ones =
        Pid.Set.of_ints
          (List.filter
             (fun i -> ones_mask land (1 lsl (i - 1)) <> 0)
             (List.init n (fun i -> i + 1)))
      in
      let proposals = Sim.Runner.binary_proposals config ~ones in
      let spec =
        Mc.Distrib.make ~policy ~reduce:Mc.Distrib.Rdedup ~algo config
          (Mc.Distrib.Fixed proposals)
      in
      result_equal (oracle spec) (sweep "random" spec).Mc.Distrib.result)

(* Symmetry: exact aggregates, and the orbit weighting accounts for every
   unreduced violation and contained crash. *)
let test_symmetry_equivalence () =
  List.iter
    (fun (policy, ptag) ->
      List.iter
        (fun (algo, name, n, t) ->
          let tag = Printf.sprintf "%s n=%d t=%d %s" name n t ptag in
          let spec =
            Mc.Distrib.make ~policy ~reduce:Mc.Distrib.Rsym ~algo
              (config ~n ~t) Mc.Distrib.Binary
          in
          check_against_oracle tag spec ~oracle:(oracle spec) (sweep tag spec))
        [
          (floodset, "floodset", 4, 2);
          (floodmin, "floodmin", 4, 2);
          (Fuzz.Faulty.eager_floodset, "eager", 4, 1);
          (Fuzz.Faulty.eager_floodset, "eager", 4, 2);
          (Fuzz.Faulty.raising ~at:2, "raising@2", 4, 1);
        ])
    both_policies

let test_symmetry_orbits () =
  let config = c41 in
  let orbits = Mc.Symmetry.orbits config in
  check_int "n+1 orbits" 5 (List.length orbits);
  check_int "multiplicities cover 2^n" 16
    (List.fold_left (fun acc o -> acc + o.Mc.Symmetry.multiplicity) 0 orbits);
  check_int "C(4,2)" 6 (Mc.Symmetry.choose 4 2)

(* A(t+2).Standard is not symmetric (its Ct_diamond_s fallback elects
   coordinators by pid), so asking for symmetry must fall back to plain
   dedup — bit-identically. *)
let test_symmetry_asymmetric_fallback () =
  check_bool "at2 not symmetric" false (Sim.Algorithm.symmetric at2);
  let spec reduce = Mc.Distrib.make ~reduce ~algo:at2 c41 Mc.Distrib.Binary in
  let d = sweep "dedup" (spec Mc.Distrib.Rdedup) in
  let s = sweep "dedup+sym" (spec Mc.Distrib.Rsym) in
  check_int "all 2^n assignment tasks" 16 s.Mc.Distrib.total_tasks;
  check_bool "falls back to dedup" true
    (d.Mc.Distrib.result = s.Mc.Distrib.result
    && d.Mc.Distrib.stats = s.Mc.Distrib.stats);
  check_bool "still == oracle" true
    (result_equal (oracle (spec Mc.Distrib.Rnone)) s.Mc.Distrib.result)

(* The paper's headline sweep, with every reduction on: A(t+2) still
   decides at exactly t+2 with no violation in any of the runs the
   reduced sweeps account for. *)
let test_at2_reduced_t_plus_2 () =
  List.iter
    (fun (tag, reduce) ->
      let r =
        (sweep tag (Mc.Distrib.make ~reduce ~algo:at2 c41 Mc.Distrib.Binary))
          .Mc.Distrib.result
      in
      check_int (tag ^ " min = t+2") 3 r.Mc.Exhaustive.min_decision;
      check_int (tag ^ " max = t+2") 3 r.Mc.Exhaustive.max_decision;
      check_bool (tag ^ " no violations") true (r.Mc.Exhaustive.violations = []);
      check_bool (tag ^ " many runs") true (r.Mc.Exhaustive.runs > 500))
    [ ("dedup", Mc.Distrib.Rdedup); ("sym", Mc.Distrib.Rsym) ]

(* ------------------------------------------------------------------ *)
(* Omission-fault adversary (DESIGN §13)                               *)

(* One-round branching under each menu, against the closed forms: with
   [a] alive processes an omission act offers a culprits x (non-empty
   target subsets of the other a-1), crashes keep their usual branching,
   and a declared culprit is the only one left once the budget is spent. *)
let test_serial_omission_choices () =
  let alive = Pid.Set.universe ~n:3 in
  let count ?faults ?send_omitters ?omit_left ~crashes_left () =
    List.length
      (Mc.Serial.choices ?faults ?send_omitters ?omit_left
         ~policy:Mc.Serial.All_subsets ~alive ~crashes_left ())
  in
  (* 1 no-act + 3 culprits x (2^2 - 1) non-empty target sets *)
  check_int "send-omit branching" 10
    (count ~faults:Sim.Model.Send_omit_only ~omit_left:1 ~crashes_left:0 ());
  check_int "recv-omit branching" 10
    (count ~faults:Sim.Model.Recv_omit_only ~omit_left:1 ~crashes_left:0 ());
  (* mixed adds the crash-only branching (3 victims x 2^2 receiver sets)
     and both omission classes *)
  check_int "mixed branching" 31
    (count ~faults:Sim.Model.Mixed ~omit_left:1 ~crashes_left:1 ());
  (* budget spent: only the declared culprit may re-offend (for free) *)
  check_int "declared culprit re-offends" 4
    (count ~faults:Sim.Model.Send_omit_only
       ~send_omitters:(Pid.Set.of_ints [ 1 ])
       ~omit_left:0 ~crashes_left:0 ());
  (* Crash_only ignores any omission budget *)
  check_int "crash-only unchanged" 13
    (count ~faults:Sim.Model.Crash_only ~omit_left:1 ~crashes_left:1 ())

(* The e13 anchor numbers on the oracle (the driver reproduces them in
   [test_sweep_determinism]). *)
let test_omission_sweep_determinism () =
  List.iter
    (fun (algo, name, expect_viol, expect_min, expect_max) ->
      let proposals = Sim.Runner.distinct_proposals c41 in
      let faults = Sim.Model.Send_omit_only in
      let s = Oracle.sweep ~faults ~algo ~config:c41 ~proposals () in
      check_int (name ^ ": runs") 253 s.Mc.Exhaustive.runs;
      check_int (name ^ ": violations") expect_viol
        (List.length s.Mc.Exhaustive.violations);
      check_int (name ^ ": min decision") expect_min
        s.Mc.Exhaustive.min_decision;
      check_int (name ^ ": max decision") expect_max
        s.Mc.Exhaustive.max_decision)
    [
      (floodset, "floodset send-omit", 8, 2, 2);
      (at2, "at2 send-omit", 0, 3, 7);
    ]

(* Every schedule an omission sweep enumerates validates, carries the
   sweep's explicit budget, and a violation witness replays to the same
   violation outside the sweep. *)
let test_omission_sweep_witnesses_replay () =
  let faults = Sim.Model.Mixed in
  let proposals = Sim.Runner.distinct_proposals c41 in
  let r =
    (sweep "mixed" (Mc.Distrib.make ~faults ~algo:floodset c41 (fixed c41)))
      .Mc.Distrib.result
  in
  check_bool "mixed menu finds violations" true
    (r.Mc.Exhaustive.violations <> []);
  let budget = Mc.Serial.budget_of ~faults c41 in
  List.iter
    (fun (choices, violations) ->
      let s = Mc.Serial.to_schedule ?budget c41 choices in
      assert_valid c41 s;
      check_bool "witness carries the budget" true
        (Sim.Schedule.budget s = budget);
      let replayed =
        Sim.Props.check (Sim.Runner.run floodset c41 ~proposals s)
      in
      check_bool "witness replays its violations" true (violations = replayed))
    r.Mc.Exhaustive.violations

(* Crash-only sweeps are bit-compatible with the pre-omission enumerator:
   passing the menu explicitly changes nothing, and no budget is attached
   to the schedules. *)
let test_crash_only_bit_compat () =
  let default_ =
    (sweep "default" (Mc.Distrib.make ~algo:floodset c41 (fixed c41)))
      .Mc.Distrib.result
  in
  let explicit =
    (sweep "explicit"
       (Mc.Distrib.make ~faults:Sim.Model.Crash_only ~omit_budget:3
          ~algo:floodset c41 (fixed c41)))
      .Mc.Distrib.result
  in
  check_bool "explicit Crash_only == default" true
    (result_equal default_ explicit);
  check_bool "crash-only carries no budget" true
    (Mc.Serial.budget_of ~faults:Sim.Model.Crash_only c41 = None)

(* Wall-clock deadlines: a deadline already in the past expires a task
   mid-search and stops a sweep before its first task, under every
   executor and reduction; a generous one changes nothing. *)
let test_sweep_deadline_expiry () =
  let now = Unix.gettimeofday () in
  List.iter
    (fun (rtag, reduce) ->
      let spec = Mc.Distrib.make ~reduce ~algo:floodset c41 (fixed c41) in
      let e = Mc.Distrib.run_task ~deadline:(now -. 1.) spec 0 in
      check_bool (rtag ^ ": task expires") true
        e.Mc.Checkpoint.result.Mc.Exhaustive.expired;
      let plain = sweep rtag spec in
      List.iter
        (fun (etag, executor) ->
          let tag = rtag ^ " " ^ etag in
          let executor = executor spec in
          let past = sweep ~executor ~deadline:(now -. 1.) tag spec in
          check_bool (tag ^ ": past deadline is partial") true
            past.Mc.Distrib.partial;
          check_bool (tag ^ ": partial accounting only") true
            (past.Mc.Distrib.result.Mc.Exhaustive.runs < 253);
          let future = sweep ~executor ~deadline:(now +. 3600.) tag spec in
          check_bool (tag ^ ": future deadline does not expire") false
            (future.Mc.Distrib.partial
            || future.Mc.Distrib.result.Mc.Exhaustive.expired);
          check_bool
            (tag ^ ": future deadline == no deadline")
            true
            (result_equal plain.Mc.Distrib.result future.Mc.Distrib.result))
        executors)
    [ ("none", Mc.Distrib.Rnone); ("dedup", Mc.Distrib.Rdedup) ]

(* ------------------------------------------------------------------ *)
(* Fault containment                                                   *)

(* A raising on_receive is contained as a per-run crashed record, with
   full pid/round context (every executor reproduces this record in
   [test_sweep_determinism]). *)
let test_sweep_contains_step_errors () =
  let algo = Fuzz.Faulty.raising ~at:2 in
  let proposals = Sim.Runner.distinct_proposals c31 in
  let s = Oracle.sweep ~algo ~config:c31 ~proposals ~horizon:2 () in
  check_bool "every run crashed" true
    (List.length s.Mc.Exhaustive.crashed = s.Mc.Exhaustive.runs);
  check_bool "some runs" true (s.Mc.Exhaustive.runs > 0);
  match s.Mc.Exhaustive.crashed with
  | { Mc.Exhaustive.error; _ } :: _ ->
      check_int "faulting round" 2 (Round.to_int error.Sim.Engine.round);
      check_bool "algorithm name" true (error.Sim.Engine.algorithm = "Raising@2");
      check_bool "reason mentions the fault" true
        (contains error.Sim.Engine.reason "injected fault")
  | [] -> Alcotest.fail "expected crashed runs"

(* An exception outside the engine's containment (raising init) must
   surface as per-task failures with task context — every worker answers
   and the merged result still arrives. *)
let test_parallel_shard_failures () =
  let sweep_on_workers name spec =
    sweep ~executor:(on_workers spec) name spec
  in
  let r =
    (sweep_on_workers "raising init"
       (Mc.Distrib.make ~horizon:2 ~algo:Fuzz.Faulty.raising_init c31 (fixed c31)))
      .Mc.Distrib.result
  in
  check_int "no run completed" 0 r.Mc.Exhaustive.runs;
  check_bool "every shard failed" true
    (List.length r.Mc.Exhaustive.shard_failures > 0);
  List.iteri
    (fun i (f : Mc.Exhaustive.shard_failure) ->
      check_int "shards reported in order" i f.Mc.Exhaustive.shard;
      check_bool "context describes the subproblem" true
        (f.Mc.Exhaustive.context <> "");
      check_bool "message kept" true
        (contains f.Mc.Exhaustive.message "injected init fault"))
    r.Mc.Exhaustive.shard_failures;
  (* A healthy sweep reports no shard failures. *)
  let ok =
    (sweep_on_workers "healthy"
       (Mc.Distrib.make ~algo:floodset c31 (fixed c31)))
      .Mc.Distrib.result
  in
  check_bool "healthy sweep has none" true
    (ok.Mc.Exhaustive.shard_failures = [])

(* ------------------------------------------------------------------ *)
(* Valency                                                             *)

let witness = Mc.Attack.witness_proposals c31

let sweep_fixed algo proposals =
  sweep "valency" (Mc.Distrib.make ~algo c31 (Mc.Distrib.Fixed proposals))

let test_valency_univalent_uniform () =
  (* All-zero proposals: validity forces 0-valence. *)
  let proposals = Sim.Runner.binary_proposals c31 ~ones:Pid.Set.empty in
  let r = sweep_fixed floodset_ws proposals in
  check_bool "0-valent" true
    (r.Mc.Distrib.result.Mc.Exhaustive.valency
    = Mc.Exhaustive.Univalent Value.zero)

(* Lemma 3: the first binary task whose runs decide both values. *)
let test_valency_bivalent_initial () =
  let run =
    sweep "binary" (Mc.Distrib.make ~algo:floodset_ws c31 Mc.Distrib.Binary)
  in
  match
    List.find_opt
      (fun (e : Mc.Checkpoint.entry) -> Mc.Exhaustive.frontier e.result >= 0)
      run.Mc.Distrib.completed
  with
  | None -> Alcotest.fail "Lemma 3: a bivalent initial configuration exists"
  | Some e ->
      let proposals = List.nth (Mc.Exhaustive.binary_assignments c31) e.task in
      check_bool "(1,1,0)" true
        (Pid.Map.equal Value.equal proposals
           (Sim.Runner.binary_proposals c31 ~ones:(Pid.Set.of_ints [ 1; 2 ])))

let test_valency_frontier_floodset_ws () =
  (* Lemma 4 gives a bivalent (t-1)-round run; the t-round partials of a
     t+1-decider are univalent. *)
  check_int "frontier = t-1" 0
    (Mc.Exhaustive.frontier (sweep_fixed floodset_ws witness).Mc.Distrib.result)

let test_valency_frontier_at2 () =
  check_int "frontier = t-1" 0
    (Mc.Exhaustive.frontier (sweep_fixed at2 witness).Mc.Distrib.result)

let test_valency_crash_changes_value () =
  (* (0,1,1): p1 crashing silently at round 1 forces decision 1; quiet runs
     decide 0 -> the root is bivalent, the first-round subtree where p1
     dies silently is 1-valent. *)
  let run = sweep_fixed floodset_ws witness in
  let silent =
    Mc.Serial.Crash { victim = Pid.of_int 1; receivers = Pid.Set.empty }
  in
  let subtree choice =
    Mc.Serial.adversary_choices ~policy:Mc.Serial.Prefixes
      ~faults:Sim.Model.Crash_only (Mc.Serial.initial c31)
    |> List.find_index (( = ) choice)
    |> Option.get
    |> List.nth run.Mc.Distrib.completed
    |> fun (e : Mc.Checkpoint.entry) -> e.result.Mc.Exhaustive.valency
  in
  check_bool "root bivalent" true
    (run.Mc.Distrib.result.Mc.Exhaustive.valency = Mc.Exhaustive.Bivalent []);
  check_bool "silent-crash subtree 1-valent" true
    (subtree silent = Mc.Exhaustive.Univalent Value.one);
  check_bool "no-crash subtree 0-valent" true
    (subtree Mc.Serial.No_crash = Mc.Exhaustive.Univalent Value.zero)

(* ------------------------------------------------------------------ *)
(* Attack                                                              *)

let test_witness_breaks_floodset_ws () =
  List.iter
    (fun (n, t) ->
      let cfg = config ~n ~t in
      let r = Mc.Attack.floodset_ws_witness cfg in
      check_bool
        (Printf.sprintf "violation at n=%d t=%d" n t)
        true
        (List.exists
           (function Sim.Props.Agreement _ -> true | _ -> false)
           r.Mc.Attack.violations);
      check_bool "the report carries its run's events" true
        (match List.rev r.Mc.Attack.events with
        | Obs.Event.Run_end { rounds; _ } :: _ ->
            rounds = r.Mc.Attack.trace.Sim.Trace.rounds_executed
        | _ -> false))
    [ (3, 1); (4, 1); (5, 2); (7, 3); (9, 4) ]

let test_witness_schedule_shape () =
  let s = Mc.Attack.witness_schedule c52 in
  assert_valid c52 s;
  check_bool "asynchronous" false (Sim.Schedule.synchronous s);
  (* t-1 chain crashes plus the final crash *)
  check_int "crashes" 2 (Sim.Schedule.crash_count s);
  check_bool "p_t stays correct" true
    (Sim.Schedule.crash_round s (Pid.of_int 2) = None)

let test_solo_split_breaks_floodset () =
  let r = Mc.Attack.run_solo_split floodset c52 in
  check_bool "violated" true (r.Mc.Attack.violations <> [])

(* Section 1.4: the attack transfers to the DLS basic round model with the
   isolating messages lost instead of delayed. *)
let test_solo_split_dls () =
  let s = Mc.Attack.solo_split_dls c52 in
  assert_valid c52 s;
  check_bool "DLS model" true
    (Sim.Model.equal (Sim.Schedule.model s) Sim.Model.Dls_basic);
  check_bool "no delayed messages at all" true
    (List.for_all
       (fun (p : Sim.Schedule.plan) -> p.Sim.Schedule.delayed = [])
       (Sim.Schedule.plans s));
  let r = Mc.Attack.run_solo_split_dls floodset_ws c52 in
  check_bool "FloodSetWS violated in DLS" true (r.Mc.Attack.violations <> []);
  let r2 = Mc.Attack.run_solo_split_dls floodset c52 in
  check_bool "FloodSet violated in DLS" true (r2.Mc.Attack.violations <> [])

let test_dls_model_rules () =
  (* Delays are never legal in the DLS basic model; arbitrary pre-gst losses
     are. *)
  let dls ~gst plans =
    Sim.Schedule.make ~model:Sim.Model.Dls_basic ~gst:(Round.of_int gst) plans
  in
  let lost_plan =
    {
      Sim.Schedule.crashes = [];
      lost = [ (Pid.of_int 1, Pid.of_int 2) ];
      delayed = [];
    }
  in
  let delayed_plan =
    {
      Sim.Schedule.crashes = [];
      lost = [];
      delayed = [ (Pid.of_int 1, Pid.of_int 2, Round.of_int 3) ];
    }
  in
  assert_valid c52 (dls ~gst:2 [ lost_plan ]);
  assert_invalid c52 (dls ~gst:1 [ lost_plan ]);
  assert_invalid c52 (dls ~gst:4 [ delayed_plan ])

let test_survivors () =
  List.iter
    (fun algo ->
      let r1 = Mc.Attack.run_witness algo c52 in
      let r2 = Mc.Attack.run_solo_split algo c52 in
      check_bool "witness survived" true (r1.Mc.Attack.violations = []);
      check_bool "solo split survived" true (r2.Mc.Attack.violations = []))
    [ at2; at2_opt; a_ds; hr; ct ]

(* The five-run construction of Claim 5.1 (Fig. 1): every proof obligation
   holds against the canonical t+1-round algorithm, at every resilience. *)
let test_figure1_against_floodset_ws () =
  List.iter
    (fun (n, t) ->
      let o = Mc.Figure1.against_floodset_ws (config ~n ~t) in
      List.iter
        (fun (r : Mc.Figure1.relation) ->
          check_bool
            (Printf.sprintf "(n=%d,t=%d) %s" n t r.description)
            true r.holds)
        o.Mc.Figure1.relations;
      check_bool "agreement violated" true o.Mc.Figure1.agreement_violated;
      check_bool "all_hold" true (Mc.Figure1.all_hold o))
    [ (3, 1); (4, 1); (5, 2); (7, 3); (9, 4) ]

(* Against the indulgent algorithm the same five runs produce no violation:
   A(t+2) does not decide at t+1, so the contradiction never materialises. *)
let test_figure1_against_at2 () =
  let module F = Mc.Figure1.Make (Indulgent.At_plus_2.Standard) in
  let o = F.run (config ~n:5 ~t:2) in
  check_bool "no agreement violation" false o.Mc.Figure1.agreement_violated;
  check_bool "Q does not decide both values" true
    (not
       (o.Mc.Figure1.q_decision_a1 = Some Kernel.Value.one
       && o.Mc.Figure1.q_decision_a0 = Some Kernel.Value.zero))

(* ------------------------------------------------------------------ *)
(* Codec: canonical JSON for everything a worker ships or a checkpoint
   stores — the wire format and the snapshot format are the same bytes,
   so one round-trip suite covers both.                                 *)

let json_eq a b = String.equal (Obs.Json.to_string a) (Obs.Json.to_string b)

let pid_set_of_mask mask =
  Pid.Set.of_ints
    (List.filter (fun i -> mask land (1 lsl (i - 1)) <> 0) [ 1; 2; 3; 4; 5 ])

let arb_choice =
  QCheck.map
    (fun (kind, who, mask) ->
      let pid = Pid.of_int (1 + who) in
      let set = pid_set_of_mask mask in
      match kind with
      | 0 -> Mc.Serial.No_crash
      | 1 -> Mc.Serial.Crash { victim = pid; receivers = set }
      | 2 -> Mc.Serial.Send_omit { culprit = pid; dropped = set }
      | _ -> Mc.Serial.Recv_omit { culprit = pid; dropped = set })
    QCheck.(triple (int_range 0 3) (int_range 0 4) (int_range 0 31))

(* Sets decode to the same set but not necessarily the same tree shape, so
   the property is a fixpoint on the canonical encoding. *)
let prop_codec_choice_roundtrip =
  qtest ~count:200 "choice codec round-trip" arb_choice (fun c ->
      match Mc.Codec.choice_of_json (Mc.Codec.choice_to_json c) with
      | Error msg -> QCheck.Test.fail_reportf "decode failed: %s" msg
      | Ok c' -> json_eq (Mc.Codec.choice_to_json c) (Mc.Codec.choice_to_json c'))

let arb_violation =
  QCheck.map
    (fun (kind, a, b, mask) ->
      let pid i = Pid.of_int (1 + (i mod 5)) in
      let undecided =
        List.filter (fun i -> mask land (1 lsl (i - 1)) <> 0) [ 1; 2; 3; 4; 5 ]
        |> List.map Pid.of_int
      in
      match kind with
      | 0 -> Sim.Props.Validity { pid = pid a; value = Value.of_int b }
      | 1 ->
          Sim.Props.Agreement
            {
              pid_a = pid a;
              value_a = Value.of_int a;
              pid_b = pid b;
              value_b = Value.of_int b;
            }
      | 2 -> Sim.Props.Termination { undecided }
      | _ -> Sim.Props.Unsettled { undecided })
    QCheck.(quad (int_range 0 3) (int_range 0 4) (int_range 0 4) (int_range 0 31))

let prop_codec_violation_roundtrip =
  qtest ~count:200 "violation codec round-trip" arb_violation (fun v ->
      match Mc.Codec.violation_of_json (Mc.Codec.violation_to_json v) with
      | Error msg -> QCheck.Test.fail_reportf "decode failed: %s" msg
      | Ok v' -> v' = v)

let arb_step_error =
  QCheck.map
    (fun (algorithm, reason, p, r) ->
      {
        Sim.Engine.algorithm;
        pid = Pid.of_int (1 + p);
        round = Round.of_int (1 + r);
        reason;
      })
    QCheck.(quad string_printable string_printable (int_range 0 4) (int_range 0 8))

let prop_codec_step_error_roundtrip =
  qtest ~count:200 "step_error codec round-trip" arb_step_error (fun e ->
      Mc.Codec.step_error_of_json (Mc.Codec.step_error_to_json e) = Ok e)

let test_codec_stats_roundtrip () =
  let s =
    {
      Mc.Dedup.hits = 12;
      misses = 5;
      entries = 7;
      edges = 999;
      spilled = 3;
      snapshots = 41;
      restores = 29;
    }
  in
  check_bool "stats round-trip" true
    (Mc.Codec.stats_of_json (Mc.Codec.stats_to_json s) = Ok s);
  (* Checkpoints written before the arena counters existed decode with
     both counters at 0. *)
  let legacy =
    Obs.Json.Obj
      [
        ("hits", Obs.Json.Int 1);
        ("misses", Obs.Json.Int 2);
        ("entries", Obs.Json.Int 3);
        ("edges", Obs.Json.Int 4);
        ("spilled", Obs.Json.Int 0);
      ]
  in
  check_bool "legacy stats decode" true
    (Mc.Codec.stats_of_json legacy
    = Ok
        {
          Mc.Dedup.hits = 1;
          misses = 2;
          entries = 3;
          edges = 4;
          spilled = 0;
          snapshots = 0;
          restores = 0;
        })

(* Real sweep results — the fixtures deliberately include an algorithm
   that violates agreement and one that raises mid-run, so the codec is
   exercised on populated violation lists, witnesses and crashed runs, and
   with the all-zero sweep on every valency constructor. *)
let test_codec_result_roundtrip () =
  let all_zero = Sim.Runner.binary_proposals c41 ~ones:Pid.Set.empty in
  let results =
    ( "all-zero",
      Oracle.sweep ~algo:floodset ~config:c41 ~proposals:all_zero () )
    :: List.map
         (fun (algo, name, n, t) ->
           let config = config ~n ~t in
           let proposals = Sim.Runner.distinct_proposals config in
           (name, Oracle.sweep ~algo ~config ~proposals ()))
         reduction_fixtures
  in
  List.iter
    (fun (name, r) ->
      match Mc.Codec.result_of_json (Mc.Codec.result_to_json r) with
      | Error msg -> Alcotest.fail (name ^ ": " ^ msg)
      | Ok r' ->
          check_bool (name ^ ": decoded result is bit-identical") true
            (result_equal r r');
          check_bool (name ^ ": codec equality agrees") true
            (Mc.Codec.result_equal r r'))
    results;
  let kind (_, r) =
    match r.Mc.Exhaustive.valency with
    | Undecided -> 0
    | Univalent _ -> 1
    | Bivalent _ -> 2
  in
  check_bool "every valency constructor covered" true
    (List.sort_uniq compare (List.map kind results) = [ 0; 1; 2 ])

(* A malformed [valency] is an [Error] naming the field, never an
   exception or a silent default. *)
let test_codec_valency_errors () =
  let open Obs.Json in
  let fields =
    match
      Mc.Codec.result_to_json
        (Oracle.sweep ~algo:floodset ~config:c31
           ~proposals:(Sim.Runner.distinct_proposals c31)
           ())
    with
    | Obj fields -> List.remove_assoc "valency" fields
    | _ -> Alcotest.fail "results encode as objects"
  in
  List.iter
    (fun valency ->
      match
        Mc.Codec.result_of_json
          (Obj (fields @ List.map (fun v -> ("valency", v)) valency))
      with
      | Ok _ -> Alcotest.fail "a malformed valency decoded"
      | Error msg -> check_bool msg true (contains msg "valency"))
    [
      [];
      [ String "bivalent" ];
      [ Obj [ ("univalent", String "0") ] ];
      [ Obj [ ("bivalent", List [ Obj [ ("act", String "jump") ] ]) ] ];
      [ Obj [ ("univalent", Int 0); ("bivalent", List []) ] ];
    ]

(* ------------------------------------------------------------------ *)
(* Checkpoint: versioned snapshots and their pinned failure modes       *)

let with_temp_file f =
  let path = Filename.temp_file "ipi-test-mc" ".json" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () -> f path)

let with_temp_dir f =
  let dir = Filename.temp_file "ipi-test-mc" ".dir" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  Fun.protect
    ~finally:(fun () ->
      Array.iter
        (fun name ->
          try Sys.remove (Filename.concat dir name) with Sys_error _ -> ())
        (Sys.readdir dir);
      try Unix.rmdir dir with Unix.Unix_error _ -> ())
    (fun () -> f dir)

let mk_spec ?faults ?omit_budget ?(reduce = Mc.Distrib.Rdedup) ?(binary = false)
    ?table_cap ?spill_dir ~algo config =
  Mc.Distrib.make ?faults ?omit_budget ~reduce ?table_cap ?spill_dir ~algo
    config
    (if binary then Mc.Distrib.Binary else fixed config)

let entry_equal (a : Mc.Checkpoint.entry) (b : Mc.Checkpoint.entry) =
  a.task = b.task && a.edges = b.edges && a.stats = b.stats
  && Mc.Codec.result_equal a.result b.result

let test_checkpoint_roundtrip () =
  with_temp_file @@ fun path ->
  let params = Obs.Json.Obj [ ("test", Obs.Json.String "ckpt-roundtrip") ] in
  let full =
    run_ok "serial" (Mc.Distrib.run ~params (mk_spec ~algo:floodset c41))
  in
  check_bool "fixture produced entries" true (full.Mc.Distrib.completed <> []);
  let t =
    {
      Mc.Checkpoint.commit = "deadbeef";
      params;
      total_tasks = full.Mc.Distrib.total_tasks;
      completed = full.Mc.Distrib.completed;
    }
  in
  Mc.Checkpoint.save ~path t;
  match Mc.Checkpoint.load ~path with
  | Error e ->
      Alcotest.fail (Format.asprintf "%a" Mc.Checkpoint.pp_load_error e)
  | Ok t' ->
      check_string "commit survives" "deadbeef" t'.Mc.Checkpoint.commit;
      check_bool "params survive canonically" true
        (json_eq params t'.Mc.Checkpoint.params);
      check_int "total_tasks survives" t.Mc.Checkpoint.total_tasks
        t'.Mc.Checkpoint.total_tasks;
      check_int "entry count survives"
        (List.length t.Mc.Checkpoint.completed)
        (List.length t'.Mc.Checkpoint.completed);
      List.iter2
        (fun a b -> check_bool "entry bit-identical" true (entry_equal a b))
        t.Mc.Checkpoint.completed t'.Mc.Checkpoint.completed;
      check_bool "compatible with its own params" true
        (Mc.Checkpoint.compatible t' ~params = Ok ())

let load_error name path =
  match Mc.Checkpoint.load ~path with
  | Ok _ -> Alcotest.fail (name ^ ": expected a load error")
  | Error e -> (e, Format.asprintf "%a" Mc.Checkpoint.pp_load_error e)

let test_checkpoint_load_errors () =
  let e, msg = load_error "missing" "/nonexistent/ipi.ckpt" in
  check_bool "missing file is Unreadable" true
    (match e with Mc.Checkpoint.Unreadable _ -> true | _ -> false);
  check_bool "missing-file message pinned" true
    (contains msg "checkpoint: cannot read file");
  with_temp_file @@ fun path ->
  let is_malformed = function Mc.Checkpoint.Malformed _ -> true | _ -> false in
  Obs.Artifact.write_string path "not json {";
  let e, msg = load_error "garbage" path in
  check_bool "garbage is Malformed" true (is_malformed e);
  check_bool "malformed message pinned" true
    (contains msg "checkpoint: malformed or truncated file");
  Obs.Artifact.write_string path "{\"not\":\"a checkpoint\"}";
  let e, _ = load_error "wrong shape" path in
  check_bool "JSON without the format marker is Malformed" true (is_malformed e);
  (* a half-written file: valid snapshot cut mid-byte *)
  let params = Obs.Json.Obj [ ("test", Obs.Json.String "ckpt-errors") ] in
  let full =
    run_ok "serial" (Mc.Distrib.run ~params (mk_spec ~algo:floodset c31))
  in
  let snapshot =
    {
      Mc.Checkpoint.commit = "c";
      params;
      total_tasks = full.Mc.Distrib.total_tasks;
      completed = full.Mc.Distrib.completed;
    }
  in
  Mc.Checkpoint.save ~path snapshot;
  let whole = In_channel.with_open_bin path In_channel.input_all in
  Obs.Artifact.write_string path (String.sub whole 0 (String.length whole / 2));
  let e, _ = load_error "truncated" path in
  check_bool "truncated file is Malformed, never an exception" true
    (is_malformed e);
  (* the version gate fires before any other field is even looked at *)
  Obs.Artifact.write_string path
    (Obs.Json.to_string
       (Obs.Json.Obj
          [
            ("format", Obs.Json.String "ipi-checkpoint");
            ("version", Obs.Json.Int 99);
          ]));
  let e, msg = load_error "future version" path in
  check_bool "future version is Unknown_version" true
    (e = Mc.Checkpoint.Unknown_version 99);
  check_string "version message pinned"
    (Printf.sprintf
       "checkpoint: unknown format version 99 (this build reads version %d)"
       Mc.Checkpoint.version)
    msg;
  (* a version-1 snapshot has no valencies: refused, never read as
     Undecided *)
  (match Obs.Json.of_string whole with
  | Ok (Obs.Json.Obj f) ->
      Obs.Artifact.write_string path
        (Obs.Json.to_string
           (Obs.Json.Obj
              (("version", Obs.Json.Int 1) :: List.remove_assoc "version" f)))
  | _ -> Alcotest.fail "a snapshot is a JSON object");
  let e, _ = load_error "version 1" path in
  check_bool "version 1 is Unknown_version 1" true
    (e = Mc.Checkpoint.Unknown_version 1);
  (* hand-edited task lists are refused rather than merged *)
  let entry = List.hd full.Mc.Distrib.completed in
  let forged completed total =
    Obs.Artifact.write_string path
      (Obs.Json.to_string
         (Obs.Json.Obj
            [
              ("format", Obs.Json.String "ipi-checkpoint");
              ("version", Obs.Json.Int Mc.Checkpoint.version);
              ("commit", Obs.Json.String "c");
              ("params", params);
              ("total_tasks", Obs.Json.Int total);
              ( "completed",
                Obs.Json.List (List.map Mc.Checkpoint.entry_to_json completed)
              );
            ]))
  in
  let at task = { entry with Mc.Checkpoint.task } in
  forged [ at 0; at 0 ] 2;
  let e, msg = load_error "duplicate tasks" path in
  check_bool "duplicate task indices are Malformed" true (is_malformed e);
  check_bool "duplicate message names the problem" true
    (contains msg "not ascending");
  forged [ at 5 ] 2;
  let e, msg = load_error "out of range" path in
  check_bool "out-of-range task index is Malformed" true (is_malformed e);
  check_bool "range message names the problem" true
    (contains msg "out of range")

(* ------------------------------------------------------------------ *)
(* Crash-safe drivers: checkpoint, interrupt, resume — bit-identical    *)

(* Interrupt after four tasks (deterministically, via the should_stop
   poll), checkpoint every task, reload, resume, and demand the resumed
   aggregates equal an undisturbed run on every field. *)
let serial_resume_cycle name spec =
  with_temp_file @@ fun path ->
  let params = Obs.Json.Obj [ ("test", Obs.Json.String name) ] in
  let full = run_ok name (Mc.Distrib.run ~params spec) in
  check_bool (name ^ ": undisturbed run completes") false full.Mc.Distrib.partial;
  check_bool
    (name ^ ": fixture has enough tasks to interrupt")
    true
    (full.Mc.Distrib.total_tasks > 5);
  let polls = ref 0 in
  let should_stop () =
    incr polls;
    !polls > 4
  in
  let part =
    run_ok name
      (Mc.Distrib.run ~checkpoint:(path, 1) ~should_stop ~params spec)
  in
  check_bool (name ^ ": interrupted run reports PARTIAL") true
    part.Mc.Distrib.partial;
  check_int (name ^ ": exactly four tasks persisted") 4
    (List.length part.Mc.Distrib.completed);
  let ck =
    match Mc.Checkpoint.load ~path with
    | Ok ck -> ck
    | Error e ->
        Alcotest.fail
          (Format.asprintf "%s: %a" name Mc.Checkpoint.pp_load_error e)
  in
  check_int (name ^ ": checkpoint holds the persisted tasks") 4
    (List.length ck.Mc.Checkpoint.completed);
  let resumed = run_ok name (Mc.Distrib.run ~resume:ck ~params spec) in
  check_bool (name ^ ": resumed run completes") false resumed.Mc.Distrib.partial;
  check_bool
    (name ^ ": aggregates bit-identical after resume")
    true
    (result_equal full.Mc.Distrib.result resumed.Mc.Distrib.result);
  check_bool (name ^ ": reduction stats identical") true
    (full.Mc.Distrib.stats = resumed.Mc.Distrib.stats);
  check_int (name ^ ": edge counts identical") full.Mc.Distrib.edges
    resumed.Mc.Distrib.edges

let test_serial_resume_crash_dedup () =
  serial_resume_cycle "crash/dedup" (mk_spec ~algo:floodset c41)

let test_serial_resume_crash_unreduced () =
  serial_resume_cycle "crash/unreduced"
    (mk_spec ~reduce:Mc.Distrib.Rnone ~algo:floodset c41)

let test_serial_resume_mixed_faults () =
  serial_resume_cycle "mixed/dedup"
    (mk_spec ~faults:Sim.Model.Mixed ~omit_budget:1 ~algo:floodset c31)

let test_serial_resume_binary_scope () =
  serial_resume_cycle "binary/dedup" (mk_spec ~binary:true ~algo:floodset c41)

(* The --budget expiry path: a deadline already in the past stops the
   sweep before any task runs, still flushes a (resumable) checkpoint. *)
let test_serial_deadline_checkpoint_resume () =
  with_temp_file @@ fun path ->
  let params = Obs.Json.Obj [ ("test", Obs.Json.String "deadline") ] in
  let spec = mk_spec ~algo:floodset c41 in
  let full = run_ok "deadline" (Mc.Distrib.run ~params spec) in
  let part =
    run_ok "deadline"
      (Mc.Distrib.run ~checkpoint:(path, 1)
         ~deadline:(Unix.gettimeofday () -. 1.)
         ~params spec)
  in
  check_bool "expired budget reports PARTIAL" true part.Mc.Distrib.partial;
  check_int "nothing ran, nothing persisted" 0
    (List.length part.Mc.Distrib.completed);
  let ck =
    match Mc.Checkpoint.load ~path with
    | Ok ck -> ck
    | Error e ->
        Alcotest.fail (Format.asprintf "%a" Mc.Checkpoint.pp_load_error e)
  in
  let resumed = run_ok "deadline" (Mc.Distrib.run ~resume:ck ~params spec) in
  check_bool "resume from an empty checkpoint is the full sweep" true
    (result_equal full.Mc.Distrib.result resumed.Mc.Distrib.result)

(* A checkpoint can never silently seed a different sweep. *)
let test_resume_validation_errors () =
  let params = Obs.Json.Obj [ ("test", Obs.Json.String "resume-validate") ] in
  let spec = mk_spec ~algo:floodset c31 in
  let full = run_ok "validate" (Mc.Distrib.run ~params spec) in
  let ck params total_tasks =
    { Mc.Checkpoint.commit = "c"; params; total_tasks; completed = [] }
  in
  (match
     Mc.Distrib.run
       ~resume:
         (ck
            (Obs.Json.Obj [ ("test", Obs.Json.String "another sweep") ])
            full.Mc.Distrib.total_tasks)
       ~params spec
   with
  | Ok _ -> Alcotest.fail "foreign params must be refused"
  | Error msg ->
      check_bool "params mismatch is named" true (contains msg "parameter mismatch"));
  match
    Mc.Distrib.run
      ~resume:(ck params (full.Mc.Distrib.total_tasks + 1))
      ~params spec
  with
  | Ok _ -> Alcotest.fail "wrong task count must be refused"
  | Error msg ->
      check_bool "task count mismatch is named" true
        (contains msg "task count mismatch")

(* The checkpointing serial executor: snapshotting after every task must
   leave it bit-identical to the reference sweep, with the stats of a run
   that snapshots nothing, and the last snapshot must hold every task. *)
let test_distrib_serial_matches_classic_drivers () =
  with_temp_file @@ fun path ->
  let params = Obs.Json.Obj [ ("test", Obs.Json.String "distrib-eq") ] in
  List.iter
    (fun (tag, spec) ->
      let d =
        run_ok tag (Mc.Distrib.run ~checkpoint:(path, 1) ~params spec)
      in
      check_bool (tag ^ " == classic sweep") true
        (result_equal (oracle spec) d.Mc.Distrib.result);
      check_bool (tag ^ " stats match") true
        (d.Mc.Distrib.stats = (sweep tag spec).Mc.Distrib.stats);
      match Mc.Checkpoint.load ~path with
      | Ok ck ->
          check_int (tag ^ " snapshot holds every task")
            d.Mc.Distrib.total_tasks
            (List.length ck.Mc.Checkpoint.completed)
      | Error e ->
          Alcotest.fail
            (Format.asprintf "%s: %a" tag Mc.Checkpoint.pp_load_error e))
    [
      ("fixed/unreduced", mk_spec ~reduce:Mc.Distrib.Rnone ~algo:floodset c41);
      ("fixed/dedup", mk_spec ~algo:floodset c41);
      ( "binary/unreduced",
        mk_spec ~reduce:Mc.Distrib.Rnone ~binary:true ~algo:floodset c41 );
      ("binary/dedup", mk_spec ~binary:true ~algo:floodset c41);
    ]

(* Out-of-core dedup: capping the table and spilling to disk must change
   memory behaviour only — same aggregates, same lookup profile, and
   every key accounted for either in memory or on disk. *)
let test_spill_equivalence () =
  with_temp_dir @@ fun dir ->
  let params = Obs.Json.Obj [ ("test", Obs.Json.String "spill") ] in
  let full =
    run_ok "uncapped" (Mc.Distrib.run ~params (mk_spec ~algo:floodset c52))
  in
  let spilled =
    run_ok "spilling"
      (Mc.Distrib.run ~params
         (mk_spec ~table_cap:16 ~spill_dir:dir ~algo:floodset c52))
  in
  check_bool "spilling sweep is bit-identical" true
    (result_equal full.Mc.Distrib.result spilled.Mc.Distrib.result);
  (match (full.Mc.Distrib.stats, spilled.Mc.Distrib.stats) with
  | Some a, Some b ->
      check_bool "cap actually forced spilling" true (b.Mc.Dedup.spilled > 0);
      check_int "resident + spilled = uncapped entries" a.Mc.Dedup.entries
        (b.Mc.Dedup.entries + b.Mc.Dedup.spilled);
      check_int "lookup profile unchanged"
        (a.Mc.Dedup.hits + a.Mc.Dedup.misses)
        (b.Mc.Dedup.hits + b.Mc.Dedup.misses)
  | _ -> Alcotest.fail "dedup sweeps must report stats");
  (* no spill_dir: overflow entries are dropped, which may cost repeat
     work but never changes the answer *)
  let dropped =
    run_ok "dropping"
      (Mc.Distrib.run ~params (mk_spec ~table_cap:16 ~algo:floodset c52))
  in
  check_bool "dropping sweep is bit-identical" true
    (result_equal full.Mc.Distrib.result dropped.Mc.Distrib.result);
  (* tasks on two worker processes open their spill stores side by side *)
  let spill_spec = mk_spec ~table_cap:16 ~spill_dir:dir ~algo:floodset c52 in
  let spilled2 =
    run_ok "spilling, workers=2"
      (Mc.Distrib.run ~executor:(on_workers spill_spec) ~params spill_spec)
  in
  check_bool "spilling on two workers is bit-identical" true
    (result_equal full.Mc.Distrib.result spilled2.Mc.Distrib.result
    && spilled.Mc.Distrib.stats = spilled2.Mc.Distrib.stats)

let () =
  Alcotest.run "mc"
    [
      ( "serial",
        [
          Alcotest.test_case "choices" `Quick test_serial_choices;
          Alcotest.test_case "enumerate count" `Quick test_serial_enumerate_count;
          Alcotest.test_case "count closed form" `Quick
            test_serial_count_closed_form;
          Alcotest.test_case "to_schedule" `Quick test_serial_to_schedule;
          prop_serial_schedules_valid;
        ] );
      ( "exhaustive",
        [
          Alcotest.test_case "floodset t+1" `Quick test_exhaustive_floodset;
          Alcotest.test_case "at2 exactly t+2" `Slow test_exhaustive_at2;
          Alcotest.test_case "sweep determinism" `Quick test_sweep_determinism;
          Alcotest.test_case "binary sweep determinism" `Quick
            test_sweep_binary_determinism;
        ] );
      ( "reduction",
        [
          Alcotest.test_case "dedup == unreduced (all fixtures, both \
                              policies)" `Quick test_dedup_equivalence;
          prop_dedup_equivalent_on_random_proposals;
          Alcotest.test_case "symmetry aggregates == unreduced" `Slow
            test_symmetry_equivalence;
          Alcotest.test_case "orbit arithmetic" `Quick test_symmetry_orbits;
          Alcotest.test_case "asymmetric algorithms fall back to dedup" `Quick
            test_symmetry_asymmetric_fallback;
          Alcotest.test_case "reduced sweeps deterministic across jobs" `Quick
            test_reduced_jobs_determinism;
          Alcotest.test_case "serial omission choices" `Quick
            test_serial_omission_choices;
          Alcotest.test_case "omission sweep determinism" `Quick
            test_omission_sweep_determinism;
          Alcotest.test_case "omission witnesses replay" `Quick
            test_omission_sweep_witnesses_replay;
          Alcotest.test_case "crash-only bit compatibility" `Quick
            test_crash_only_bit_compat;
          Alcotest.test_case "sweep deadline expiry" `Quick
            test_sweep_deadline_expiry;
          Alcotest.test_case "A(t+2) = t+2 under reduction" `Quick
            test_at2_reduced_t_plus_2;
        ] );
      ( "containment",
        [
          Alcotest.test_case "step errors contained in all drivers" `Quick
            test_sweep_contains_step_errors;
          Alcotest.test_case "shard failures surface, pool survives" `Quick
            test_parallel_shard_failures;
        ] );
      ( "valency",
        [
          Alcotest.test_case "uniform is univalent" `Quick test_valency_univalent_uniform;
          Alcotest.test_case "Lemma 3" `Quick test_valency_bivalent_initial;
          Alcotest.test_case "frontier FloodSetWS" `Quick test_valency_frontier_floodset_ws;
          Alcotest.test_case "frontier A(t+2)" `Quick test_valency_frontier_at2;
          Alcotest.test_case "crash flips valency" `Quick test_valency_crash_changes_value;
        ] );
      ( "attack",
        [
          Alcotest.test_case "witness breaks FloodSetWS" `Quick test_witness_breaks_floodset_ws;
          Alcotest.test_case "witness shape" `Quick test_witness_schedule_shape;
          Alcotest.test_case "solo split breaks FloodSet" `Quick test_solo_split_breaks_floodset;
          Alcotest.test_case "solo split in DLS (Section 1.4)" `Quick test_solo_split_dls;
          Alcotest.test_case "DLS model rules" `Quick test_dls_model_rules;
          Alcotest.test_case "indulgent algorithms survive" `Quick test_survivors;
        ] );
      ( "figure1",
        [
          Alcotest.test_case "five runs vs FloodSetWS" `Quick
            test_figure1_against_floodset_ws;
          Alcotest.test_case "five runs vs A(t+2)" `Quick
            test_figure1_against_at2;
        ] );
      ( "codec",
        [
          prop_codec_choice_roundtrip;
          prop_codec_violation_roundtrip;
          prop_codec_step_error_roundtrip;
          Alcotest.test_case "stats round-trip" `Quick
            test_codec_stats_roundtrip;
          Alcotest.test_case "real results round-trip" `Quick
            test_codec_result_roundtrip;
          Alcotest.test_case "malformed valency" `Quick
            test_codec_valency_errors;
        ] );
      ( "checkpoint",
        [
          Alcotest.test_case "save/load round-trip" `Quick
            test_checkpoint_roundtrip;
          Alcotest.test_case "load error taxonomy" `Quick
            test_checkpoint_load_errors;
        ] );
      ( "crash-safety",
        [
          Alcotest.test_case "resume crash/dedup" `Quick
            test_serial_resume_crash_dedup;
          Alcotest.test_case "resume crash/unreduced" `Quick
            test_serial_resume_crash_unreduced;
          Alcotest.test_case "resume mixed faults" `Quick
            test_serial_resume_mixed_faults;
          Alcotest.test_case "resume binary scope" `Quick
            test_serial_resume_binary_scope;
          Alcotest.test_case "budget expiry checkpoint" `Quick
            test_serial_deadline_checkpoint_resume;
          Alcotest.test_case "resume validation" `Quick
            test_resume_validation_errors;
          Alcotest.test_case "distrib == classic drivers" `Quick
            test_distrib_serial_matches_classic_drivers;
          Alcotest.test_case "spill equivalence" `Quick
            test_spill_equivalence;
        ] );
    ]
