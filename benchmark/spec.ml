(* What the benchmark runs and what it reports.

   BENCHMARK.json at the repository root restates the workloads and
   metrics below for tooling; the tests check that the two agree. *)

type better = Lower | Higher

type metric = {
  name : string;
  unit : string;
  better : better;
  bound : float option;
      (** end-to-end only: the share of the baseline median by which the
          metric may worsen before a change counts as a regression *)
  slack : float;
      (** end-to-end only: an absolute allowance, in the metric's unit,
          for metrics whose baseline is small enough that timer or page
          granularity exceeds the share (used by [run.exe compare]) *)
}

let e2e name unit better bound slack =
  { name; unit; better; bound = Some bound; slack }

(* Medians over the timed repetitions of one run; [setup_s] is the median
   over the [--budget 0] repetitions of the same command. *)
let end_to_end =
  [
    e2e "wall_s" "s" Lower 0.10 0.;
    e2e "runs_per_s" "runs/s" Higher 0.10 0.;
    e2e "setup_s" "s" Lower 0.10 0.020;
    e2e "peak_rss_mb" "MB" Lower 0.10 2.;
  ]

let layer name unit better = { name; unit; better; bound = None; slack = 0. }

(* Grouped by the layer they describe; README.md maps each group to the
   end-to-end metric and workload it should move. A layer a workload does
   not use reports 0. *)
let per_layer =
  [
    (* Mc.Distrib tasks *)
    layer "mc.task.count" "count" Lower;
    layer "mc.task.busy_s" "s" Lower;
    layer "mc.task.max_s" "s" Lower;
    layer "mc.task.minor_words_per_edge" "words" Lower;
    layer "mc.merge_s" "s" Lower;
    layer "mc.runs" "count" Higher;
    layer "mc.explored" "count" Lower;
    layer "mc.explored_ratio" "ratio" Lower;
    (* Mc.Menu / Mc.Serial *)
    layer "mc.menu.edges" "count" Lower;
    layer "mc.menu.ns_per_edge" "ns" Lower;
    (* Sim.Engine.Arena *)
    layer "sim.arena.steps" "count" Lower;
    layer "sim.arena.snapshots" "count" Lower;
    layer "sim.arena.restores" "count" Lower;
    layer "sim.arena.finishes" "count" Lower;
    layer "sim.arena.ns_per_edge" "ns" Lower;
    layer "sim.arena.ns_per_finish" "ns" Lower;
    (* fingerprints *)
    layer "sim.fingerprint.probes" "count" Lower;
    layer "sim.fingerprint.ns_per_probe" "ns" Lower;
    (* Mc.Dedup *)
    layer "mc.dedup.hits" "count" Higher;
    layer "mc.dedup.misses" "count" Lower;
    layer "mc.dedup.entries" "count" Lower;
    layer "mc.dedup.hit_ratio" "ratio" Higher;
    layer "mc.dedup.self_s" "s" Lower;
    (* Mc.Codec / Mc.Checkpoint / Obs.Wire *)
    layer "mc.codec.bytes_per_entry" "B" Lower;
    layer "mc.codec.encode_s" "s" Lower;
    layer "mc.codec.decode_s" "s" Lower;
    layer "mc.checkpoint.saves" "count" Lower;
    layer "mc.checkpoint.bytes_written" "B" Lower;
    layer "mc.checkpoint.save_s" "s" Lower;
    layer "mc.checkpoint.load_s" "s" Lower;
    layer "obs.wire.frames" "count" Lower;
    layer "obs.wire.roundtrip_s" "s" Lower;
    (* Mc.Supervise / Kernel.Proc *)
    layer "mc.supervise.wall_s" "s" Lower;
    layer "mc.supervise.spawned" "count" Lower;
    layer "mc.supervise.retries" "count" Lower;
    layer "mc.supervise.deaths" "count" Lower;
    layer "mc.supervise.idle_share" "ratio" Lower;
    layer "proc.cpu_s" "s" Lower;
    layer "proc.parallelism" "ratio" Higher;
    (* Fuzz / Workload *)
    layer "fuzz.gen.schedules" "count" Higher;
    layer "fuzz.gen_s" "s" Lower;
    layer "fuzz.gen.retained_mb" "MB" Lower;
    layer "fuzz.exec_s" "s" Lower;
    layer "fuzz.exec.us_per_run" "us" Lower;
    layer "fuzz.monitor_s" "s" Lower;
    layer "fuzz.passed" "count" Higher;
    layer "fuzz.findings" "count" Lower;
    (* the ledger itself *)
    layer "trace.overhead_ratio" "ratio" Lower;
    layer "ledger.unexplained_share" "ratio" Lower;
  ]

(* ------------------------------------------------------------------ *)
(* Workloads                                                           *)

type sweep = {
  algo : string;
  n : int;
  t : int;
  faults : string;  (** an [ipi --faults] menu *)
  dedup : bool;
  workers : int;  (** 0: in-process, [--jobs 1] *)
  runs : int;  (** pinned: accounted runs *)
  rounds : int * int;  (** pinned: global decision rounds *)
}

type fuzz = { algo : string; n : int; t : int; faults : string; runs : int }
type kind = Sweep of sweep | Fuzz of fuzz
type workload = { name : string; why : string; kind : kind }

let workloads =
  [
    {
      name = "sweep-dedup";
      why =
        "reduced single-process sweep: fingerprints and the Mc.Dedup table \
         do most of the work, so POR or orbit-key changes show here";
      kind =
        Sweep
          {
            algo = "FloodSet";
            n = 7;
            t = 3;
            faults = "crash";
            dedup = true;
            workers = 0;
            runs = 58_737_408;
            rounds = (4, 4);
          };
    };
    {
      name = "sweep-omission";
      why =
        "A(t+2) under the mixed omission menu, unreduced: menu and arena do \
         the work and the table none, so a dedup change shows no change here";
      kind =
        Sweep
          {
            algo = "A(t+2)";
            n = 5;
            t = 2;
            faults = "mixed";
            dedup = false;
            workers = 0;
            runs = 2_538_912;
            rounds = (4, 12);
          };
    };
    {
      name = "sweep-workers";
      why =
        "the same tasks driven by 2 worker processes with a checkpoint after \
         every task: the only workload with supervise, wire, codec and \
         checkpoint on its path";
      kind =
        Sweep
          {
            algo = "A(t+2)";
            n = 7;
            t = 2;
            faults = "crash";
            dedup = true;
            workers = 2;
            runs = 1_379_968;
            rounds = (4, 4);
          };
    };
    {
      name = "fuzz-campaign";
      why =
        "seeded schedules executed one after another, not by DFS; memory \
         grows with the schedule stream generated up front";
      kind =
        Fuzz
          { algo = "A(t+2)"; n = 9; t = 4; faults = "mixed"; runs = 100_000 };
    };
  ]

let find_workload name = List.find_opt (fun w -> w.name = name) workloads

(* Binary sweeps have one task per proposal assignment. *)
let tasks (s : sweep) = 1 lsl s.n

(* The flags that fix a sweep's tasks. [ipi sweep] takes them, and so do
   the [ipi sweep-worker] processes of its pool. *)
let sweep_flags (s : sweep) =
  [ "-a"; s.algo; "-n"; string_of_int s.n; "-t"; string_of_int s.t ]
  @ [ "--binary"; "--faults"; s.faults ]
  @ [ "--reduce"; (if s.dedup then "dedup" else "none") ]

(* The [ipi] command line of one repetition. [setup] adds [--budget 0]:
   the same start-up, argument parsing and set-up, then no work. *)
let argv ~ipi ~seed ~checkpoint ~setup w =
  let budget = if setup then [ "--budget"; "0" ] else [] in
  match w.kind with
  | Sweep s ->
      (ipi :: "sweep" :: sweep_flags s)
      @ (if s.workers > 0 then
           [ "--workers"; string_of_int s.workers; "--checkpoint"; checkpoint ]
           @ [ "--checkpoint-every"; "1" ]
         else [ "--jobs"; "1" ])
      @ budget
  | Fuzz f ->
      [ ipi; "fuzz"; "-a"; f.algo; "-n"; string_of_int f.n ]
      @ [ "-t"; string_of_int f.t; "--faults"; f.faults ]
      @ [ "--runs"; string_of_int f.runs; "--seed"; string_of_int seed ]
      @ [ "--jobs"; "1"; "--expect-clean" ]
      @ budget

(* ------------------------------------------------------------------ *)
(* Output checks                                                        *)

let ( let* ) = Result.bind
let expect what want got = if want = got then Ok () else Error (what want got)

let expect_int name want got =
  expect (fun w g -> Printf.sprintf "%s: expected %d, got %d" name w g) want got

(* [Ok runs] with the runs the repetition accounted for, or the first
   check that failed. [checkpoint] is what loading the repetition's
   checkpoint file reported (completed and total tasks), for workloads that
   write one. *)
let check w ~setup ~(status : Rusage.status) ~stdout ~checkpoint =
  let* () =
    let want = match (w.kind, setup) with Sweep _, true -> 3 | _ -> 0 in
    match status with
    | Exited c when c = want -> Ok ()
    | s -> Error (Format.asprintf "expected exit %d, got %a" want Rusage.pp_status s)
  in
  match w.kind with
  | Sweep s ->
      let* r = Summary.sweep_of_string stdout in
      if setup then
        let* () = expect_int "runs" 0 r.runs in
        Ok 0
      else
        let* () = expect_int "runs" s.runs r.runs in
        let* () =
          expect
            (fun _ _ -> "rounds differ from the pinned range")
            (Some s.rounds) r.rounds
        in
        let* () = expect_int "violations" 0 r.violations in
        let* () = expect_int "undecided" 0 r.undecided in
        let* () = expect_int "crashed runs" 0 r.crashed in
        let* () = expect_int "shard failures" 0 r.shard_failures in
        let* () = expect (fun _ _ -> "budget expired") false r.expired in
        let* () =
          if s.workers = 0 then Ok ()
          else
            let all = Some (tasks s, tasks s) in
            let* () =
              expect (fun _ _ -> "checkpoint line incomplete") all r.checkpoint
            in
            expect (fun _ _ -> "checkpoint file incomplete") all checkpoint
        in
        Ok r.runs
  | Fuzz f ->
      let* r = Summary.fuzz_of_string stdout in
      let runs = if setup then 0 else f.runs in
      let* () = expect_int "runs" runs r.runs in
      let* () = expect_int "skipped" (f.runs - runs) r.skipped in
      let* () = expect_int "passed" runs r.passed in
      let* () = expect_int "findings" 0 r.findings in
      Ok runs
