(* The benchmark harness.

   Usage:
     dune exec bench/main.exe            -- everything: all experiment
                                            tables (E1..E10) followed by the
                                            Bechamel micro-benchmarks
     dune exec bench/main.exe e4         -- one experiment table
     dune exec bench/main.exe tables     -- all tables, no micro-benchmarks
     dune exec bench/main.exe micro      -- micro-benchmarks only

   The tables are the paper's reproduced results (paper-vs-measured is
   recorded in EXPERIMENTS.md); the micro-benchmarks measure the simulator's
   wall-clock cost per representative run — one Test.make per experiment
   workload.

   Besides the human tables, `micro` writes a machine-readable
   BENCH_<date>.json next to the current directory: per benchmark the run
   count, mean/stddev wall-clock seconds (measured with our own monotonic
   sampling loop, so the artifact does not depend on Bechamel's OLS
   internals) and — for the simulator workloads — the message and byte
   counts obtained by running the workload once under an
   Obs.Metrics.counting_sink. This file is the perf trajectory the
   regression tooling diffs across commits. *)

open Kernel
open Bechamel
open Toolkit

(* ------------------------------------------------------------------ *)
(* Micro-benchmarks: one per experiment's representative workload       *)

let quiet = Sim.Schedule.make ~model:Sim.Model.Es ~gst:Round.first []

let run_once algo config schedule () =
  ignore
    (Sim.Runner.run algo config
       ~proposals:(Sim.Runner.distinct_proposals config)
       schedule)

(* A benchmark workload: the closure Bechamel times, plus (for simulator
   runs) a sink-accepting variant the JSON exporter uses to count messages
   and bytes without re-plumbing every call site. *)
type workload = {
  name : string;
  fn : unit -> unit;
  counted : (Obs.Sink.t -> unit) option;
}

let plain name fn = { name; fn; counted = None }

let bench_of_algo name algo config schedule =
  {
    name;
    fn = run_once algo config schedule;
    counted =
      Some
        (fun sink ->
          ignore
            (Sim.Runner.run ~sink algo config
               ~proposals:(Sim.Runner.distinct_proposals config)
               schedule));
  }

let bench_of_entry name entry config schedule =
  bench_of_algo name entry.Expt.Registry.algo config schedule

let micro_workloads () =
  let c52 = Config.make ~n:5 ~t:2 in
  let c94 = Config.make ~n:9 ~t:4 in
  let c72 = Config.make ~n:7 ~t:2 in
  [
    (* E1: worst-case synchronous runs *)
    bench_of_entry "e1/at2-chain-n5" Expt.Registry.at_plus_2 c52
      (Workload.Cascade.chain c52);
    bench_of_entry "e1/at2-chain-n9" Expt.Registry.at_plus_2 c94
      (Workload.Cascade.chain c94);
    bench_of_entry "e1/hr-coordkill-n5" Expt.Registry.hurfin_raynal c52
      (Workload.Cascade.coordinator_killer c52 ~phase_rounds:2);
    bench_of_entry "e1/ct-coordkill-n5" Expt.Registry.ct_diamond_s c52
      (Workload.Cascade.coordinator_killer c52 ~phase_rounds:4);
    (* E2: the attack schedule *)
    bench_of_entry "e2/ws-witness-n5" Expt.Registry.floodset_ws c52
      (Mc.Attack.witness_schedule c52);
    (* E3: fast decision on the quiet run *)
    bench_of_entry "e3/at2-quiet-n5" Expt.Registry.at_plus_2 c52 quiet;
    bench_of_entry "e3/at2-slowC-quiet-n5" Expt.Registry.at_plus_2_slow c52
      quiet;
    (* E4: an asynchronous run that exercises the fallback *)
    bench_of_entry "e4/ads-solo-n5" Expt.Registry.a_diamond_s c52
      (Mc.Attack.solo_split_schedule c52);
    (* E5: the optimized failure-free path *)
    bench_of_entry "e5/at2opt-quiet-n5" Expt.Registry.at_plus_2_opt c52 quiet;
    (* E6/E7: A(f+2) under the split-brain adversary *)
    bench_of_entry "e6/af2-split-n7" Expt.Registry.af_plus_2 c72
      (Workload.Cascade.split_brain c72 ~k:2 ~f:2);
    bench_of_entry "e7/amr-split-n7" Expt.Registry.amr c72
      (Workload.Cascade.split_brain c72 ~k:2 ~f:2);
    (* E8: failure-detector checking *)
    plain "e8/fd-check-n5" (fun () ->
        let rng = Rng.create ~seed:7 in
        let s = Workload.Random_runs.eventually_synchronous rng c52 ~gst:4 () in
        ignore (Fd.Check.eventual_strong_accuracy c52 s));
    (* E9: the partition demo *)
    (let c42 = Config.make ~n:4 ~t:2 in
     bench_of_algo "e9/ct-naive-partition-n4"
       (Sim.Algorithm.Packed (module Baselines.Ct_naive))
       c42
       (Workload.Partition.split c42 ~until:16));
    (* E10: simulator scaling *)
    bench_of_entry "e10/at2-quiet-n25" Expt.Registry.at_plus_2
      (Config.make ~n:25 ~t:12)
      quiet;
    (* E6: the SCS early decider and the tightness adversary *)
    bench_of_entry "e6/earlyfs-quiet-n5" Expt.Registry.early_floodset c52 quiet;
    bench_of_entry "e6/af2-minority-n7" Expt.Registry.af_plus_2 c72
      (Workload.Cascade.minority_keeper c72 ~f:2);
    (* the DLS basic round model (Section 1.4) *)
    bench_of_entry "dls/quiet-n5" Expt.Registry.dls c52 quiet;
    (* schedule codec round-trip *)
    plain "codec/roundtrip-witness-n5"
      (let w = Mc.Attack.witness_schedule c52 in
       fun () -> ignore (Sim.Codec.decode (Sim.Codec.encode w)));
    (* the Fig. 1 five-run construction *)
    plain "mc/figure1-n3" (fun () ->
        ignore (Mc.Figure1.against_floodset_ws (Config.make ~n:3 ~t:1)));
    (* the model checker itself *)
    plain "mc/exhaustive-sweep-n3" (fun () ->
        let c31 = Config.make ~n:3 ~t:1 in
        ignore
          (Mc.Exhaustive.sweep
             ~algo:Expt.Registry.at_plus_2.Expt.Registry.algo ~config:c31
             ~proposals:(Sim.Runner.distinct_proposals c31)
             ()));
  ]

let micro_tests workloads =
  List.map (fun w -> Test.make ~name:w.name (Staged.stage w.fn)) workloads

(* ------------------------------------------------------------------ *)
(* The mc suite: the oracle vs the sweep driver                         *)

(* Every sweep row below runs through the one sweep driver, in process;
   only the spec differs from row to row. *)
let drive ?prof ?spans ?progress ?checkpoint spec () =
  match Mc.Distrib.run ?prof ?spans ?progress ?checkpoint spec with
  | Ok _ -> ()
  | Error msg -> failwith msg

(* The from-scratch oracle and the driver over identical state spaces
   (the results are bit-identical, which the equivalence tests assert);
   what this suite tracks is their relative wall-clock cost. *)
let mc_workloads () =
  let sweep_case tag algo config =
    let proposals = Sim.Runner.distinct_proposals config in
    let spec = Mc.Distrib.make ~algo config (Mc.Distrib.Fixed proposals) in
    let prefix = "mc/" ^ tag in
    [
      plain (prefix ^ "/serial") (fun () ->
          ignore (Mc.Exhaustive.sweep ~algo ~config ~proposals ()));
      plain (prefix ^ "/incremental") (drive spec);
    ]
  in
  let at2 = Expt.Registry.at_plus_2.Expt.Registry.algo in
  let floodset = Expt.Registry.floodset.Expt.Registry.algo in
  sweep_case "at2-n4t1" at2 (Config.make ~n:4 ~t:1)
  @ sweep_case "floodset-n4t2" floodset (Config.make ~n:4 ~t:2)
  @ sweep_case "at2-n5t2" at2 (Config.make ~n:5 ~t:2)

(* ------------------------------------------------------------------ *)
(* The mc-reduction suite: none vs dedup vs dedup+sym                   *)

(* All reduced rows compute verdicts observationally equivalent to their
   "/none" sibling (bit-identical for dedup; exact aggregates for
   dedup+sym — the equivalence tests assert both), so this suite measures
   pure reduction win. The rows are on FloodSet, the symmetric workhorse:
   dedup alone is a constant-factor win there, and the binary dedup+sym
   rows carry the >= 5x acceptance bar (2^5 assignments collapse to 6
   orbits). Every reduced row is gated: a reduction that benches slower
   than its unreduced sibling fails the artifact check below. *)
let reduction_workloads () =
  let c52 = Config.make ~n:5 ~t:2 in
  let algo = Expt.Registry.floodset.Expt.Registry.algo in
  let fixed = Mc.Distrib.Fixed (Sim.Runner.distinct_proposals c52) in
  let case name scope ?faults rows =
    List.map
      (fun (tag, reduce) ->
        plain
          (Printf.sprintf "mc-reduction/%s/%s" name tag)
          (drive (Mc.Distrib.make ?faults ~reduce ~algo c52 scope)))
      rows
  in
  case "floodset-n5t2" fixed
    [ ("none", Mc.Distrib.Rnone); ("dedup", Mc.Distrib.Rdedup) ]
  @ case "floodset-n5t2-binary" Mc.Distrib.Binary
      [
        ("none", Mc.Distrib.Rnone);
        ("dedup", Mc.Distrib.Rdedup);
        ("dedup+sym", Mc.Distrib.Rsym);
      ]
  (* The omission-fault adversary rides the same no-pessimisation gate:
     its dedup row (keys extended with the omitter bitsets) must at least
     match its unreduced sibling. FloodSet at n=5, t=2 under the mixed
     menu (one crash + one omitter) is large enough that the extended keys
     must actually collapse states to win. *)
  @ case "floodset-n5t2-mixed" fixed ~faults:Sim.Model.Mixed
      [ ("none", Mc.Distrib.Rnone); ("dedup", Mc.Distrib.Rdedup) ]

(* ------------------------------------------------------------------ *)
(* The fuzz suite: campaign throughput, online monitors on vs off       *)

(* Identical seeded campaigns, so both rows execute the same schedules
   through the same engine path; the only difference is the per-decision
   monitor fold and the early abort. The "/monitors-off" row is the
   baseline sibling (like "/serial" in the mc suite), so the JSON
   artifact's speedup_vs_serial field reports the monitor overhead ratio
   directly. *)
let fuzz_workloads () =
  let case tag algo config =
    let proposals = Sim.Runner.distinct_proposals config in
    let campaign monitor () =
      ignore
        (Fuzz.Campaign.run ~monitor ~seed:42 ~runs:60 ~algo ~config ~proposals
           ~gen:Fuzz.Campaign.default_gen ())
    in
    let prefix = "fuzz/" ^ tag in
    [
      plain (prefix ^ "/monitors-off") (campaign false);
      plain (prefix ^ "/monitors-on") (campaign true);
    ]
  in
  let c52 = Config.make ~n:5 ~t:2 in
  case "at2-n5t2" Expt.Registry.at_plus_2.Expt.Registry.algo c52
  @ case "floodset-n5t2" Expt.Registry.floodset.Expt.Registry.algo c52
  @ case "floodset-n9t4" Expt.Registry.floodset.Expt.Registry.algo
      (Config.make ~n:9 ~t:4)

(* ------------------------------------------------------------------ *)
(* The obs suite: instrumentation overhead, off vs each probe kind      *)

(* Sibling rows run the same workload with instrumentation off ("/none")
   and with one instrument enabled each, so the artifact's
   speedup_vs_none column reports each instrument's overhead ratio
   directly. The "/none" rows still pass through the guarded
   disabled-path branches, which is exactly what the committed-baseline
   diff below holds to <= 3% against the pre-instrumentation code. *)
let obs_workloads () =
  let sweep_rows =
    let c42 = Config.make ~n:4 ~t:2 in
    let spec =
      Mc.Distrib.make ~reduce:Mc.Distrib.Rdedup
        ~algo:Expt.Registry.floodset.Expt.Registry.algo c42
        (Mc.Distrib.Fixed (Sim.Runner.distinct_proposals c42))
    in
    let sweep ?prof ?spans ?progress () = drive ?prof ?spans ?progress spec () in
    let prefix = "obs/dedup-sweep-n4t2" in
    [
      plain (prefix ^ "/none") (fun () -> sweep ());
      plain (prefix ^ "/probe") (fun () -> sweep ~prof:(Obs.Prof.acc ()) ());
      plain (prefix ^ "/progress") (fun () ->
          sweep
            ~progress:
              (Obs.Progress.create ~label:"bench" ~emit:(fun _ -> ()) ())
            ());
      plain (prefix ^ "/spans") (fun () ->
          sweep ~spans:(Obs.Span.recorder ()) ());
    ]
  in
  let run_rows =
    let c52 = Config.make ~n:5 ~t:2 in
    let algo = Expt.Registry.at_plus_2.Expt.Registry.algo in
    let proposals = Sim.Runner.distinct_proposals c52 in
    let run ?prof () =
      ignore (Sim.Runner.run ?prof algo c52 ~proposals quiet)
    in
    let prefix = "obs/at2-quiet-n5" in
    [
      plain (prefix ^ "/none") (fun () -> run ());
      plain (prefix ^ "/probe") (fun () -> run ~prof:(Obs.Prof.acc ()) ());
    ]
  in
  sweep_rows @ run_rows

(* ------------------------------------------------------------------ *)
(* Machine-readable artifact: BENCH_<date>.json                        *)

type bench_row = {
  row_name : string;
  runs : int;
  mean_s : float;
  min_s : float;
      (** best observed run — the load-insensitive statistic ratio gates
          compare, since a single scheduler or disk-latency outlier shifts a
          handful-of-samples mean by whole percents *)
  stddev_s : float;
  messages : int option;
  bytes : int option;
  minor_words : float option;  (** mean per run *)
  promoted_words : float option;  (** mean per run *)
  major_collections : int option;  (** total over the profiled runs *)
}

(* Time one workload: a couple of warmup calls, then sample wall-clock
   durations until we have enough runs or spent the per-benchmark budget. *)
let time_workload w =
  let min_runs = 5 and max_runs = 50 and budget_s = 0.25 in
  w.fn ();
  w.fn ();
  let samples = ref [] in
  let started = Unix.gettimeofday () in
  let continue () =
    let n = List.length !samples in
    n < min_runs || (n < max_runs && Unix.gettimeofday () -. started < budget_s)
  in
  while continue () do
    let t0 = Unix.gettimeofday () in
    w.fn ();
    samples := (Unix.gettimeofday () -. t0) :: !samples
  done;
  let h = Obs.Metrics.histogram (Obs.Metrics.create ()) "wall_clock_s" in
  List.iter (Obs.Metrics.observe h) !samples;
  match Obs.Metrics.summary h with
  | None -> (0, 0., 0., 0.)
  | Some s ->
      (s.Obs.Metrics.count, s.Obs.Metrics.mean, s.Obs.Metrics.min,
       s.Obs.Metrics.stddev)

(* Allocation profile of one workload, in a separate pass *after* timing so
   the timed samples run the exact same code path as pre-profiling
   artifacts. Allocation is deterministic per run, so a few probed
   iterations pin the per-run mean. *)
let alloc_of_workload w =
  let a = Obs.Prof.acc () in
  for _ = 1 to 3 do
    Obs.Prof.measure a w.fn
  done;
  let m = Obs.Metrics.create () in
  Obs.Prof.flush a ~metrics:m ~prefix:"bench" ~per:"run";
  match Obs.Metrics.find_histogram m "bench.minor_words_per_run" with
  | None -> (None, None, None)
  | Some s ->
      let runs = float_of_int s.Obs.Metrics.count in
      let promoted =
        Option.map
          (fun w -> float_of_int w /. runs)
          (Obs.Metrics.find_counter m "bench.promoted_words")
      in
      ( Some s.Obs.Metrics.mean,
        promoted,
        Obs.Metrics.find_counter m "bench.major_collections" )

let cost_of_workload w =
  match w.counted with
  | None -> (None, None)
  | Some counted ->
      let registry = Obs.Metrics.create () in
      counted (Obs.Metrics.counting_sink registry);
      ( Stats.Summary.messages_of_metrics registry,
        Stats.Summary.bytes_of_metrics registry )

let bench_rows workloads =
  List.map
    (fun w ->
      let runs, mean_s, min_s, stddev_s = time_workload w in
      let messages, bytes = cost_of_workload w in
      let minor_words, promoted_words, major_collections =
        alloc_of_workload w
      in
      {
        row_name = w.name;
        runs;
        mean_s;
        min_s;
        stddev_s;
        messages;
        bytes;
        minor_words;
        promoted_words;
        major_collections;
      })
    workloads

(* The baseline sibling row's mean, for speedup annotations: ".../serial"
   in the mc suite ("mc/<case>/<mode>"), ".../monitors-off" in the fuzz
   suite ("fuzz/<case>/monitors-<on|off>") and ".../none" in the
   mc-reduction suite ("mc-reduction/<case>/<reduction>"). *)
let sibling_mean_of rows name suffix =
  match String.rindex_opt name '/' with
  | None -> None
  | Some i ->
      let sibling = String.sub name 0 i ^ suffix in
      if sibling = name then None
      else
        List.find_map
          (fun r -> if r.row_name = sibling then Some r.mean_s else None)
          rows

let serial_mean_of rows name =
  match sibling_mean_of rows name "/serial" with
  | Some m -> Some m
  | None -> sibling_mean_of rows name "/monitors-off"

let none_mean_of rows name = sibling_mean_of rows name "/none"

(* Best-observed sibling time, for overhead gates and [speedup_vs_none]:
   comparing minima instead of means keeps a handful-of-samples gate from
   flaking on one slow run — on a shared runner a noise burst inflates a
   whole row's mean, but rarely all of its samples. *)
let none_min_of rows name =
  match String.rindex_opt name '/' with
  | None -> None
  | Some i ->
      let sibling = String.sub name 0 i ^ "/none" in
      if sibling = name then None
      else
        List.find_map
          (fun r -> if r.row_name = sibling then Some r.min_s else None)
          rows

let json_of_suites ~meta suites =
  let opt_int = function Some i -> Obs.Json.Int i | None -> Obs.Json.Null in
  let opt_float =
    function Some f -> Obs.Json.Float f | None -> Obs.Json.Null
  in
  let json_of_rows rows =
    Obs.Json.List
      (List.map
         (fun r ->
           let speedup =
             match serial_mean_of rows r.row_name with
             | Some serial when r.mean_s > 0. ->
                 Obs.Json.Float (serial /. r.mean_s)
             | _ -> Obs.Json.Null
           in
           let speedup_vs_none =
             (* Best-observed on both sides (see [none_min_of]): this field
                carries the reduction gate and the bench-diff inversion
                verdict, so it must not flake with the runner's noise. *)
             match none_min_of rows r.row_name with
             | Some none when r.min_s > 0. ->
                 Obs.Json.Float (none /. r.min_s)
             | _ -> Obs.Json.Null
           in
           Obs.Json.Obj
             [
               ("name", Obs.Json.String r.row_name);
               ("runs", Obs.Json.Int r.runs);
               ("mean_s", Obs.Json.Float r.mean_s);
               ("min_s", Obs.Json.Float r.min_s);
               ("stddev_s", Obs.Json.Float r.stddev_s);
               ("messages", opt_int r.messages);
               ("bytes", opt_int r.bytes);
               ("minor_words", opt_float r.minor_words);
               ("promoted_words", opt_float r.promoted_words);
               ("major_collections", opt_int r.major_collections);
               ("speedup_vs_serial", speedup);
               ("speedup_vs_none", speedup_vs_none);
             ])
         rows)
  in
  Obs.Json.Obj
    [
      ( "date",
        let tm = Unix.localtime (Unix.time ()) in
        Obs.Json.String
          (Printf.sprintf "%04d-%02d-%02d" (tm.Unix.tm_year + 1900)
             (tm.Unix.tm_mon + 1) tm.Unix.tm_mday) );
      ("meta", meta);
      ( "suites",
        Obs.Json.Obj
          (List.map (fun (name, rows) -> (name, json_of_rows rows)) suites) );
    ]

(* Anchor the artifact at the repo root (the nearest ancestor holding
   dune-project), so `make bench` and a bare `dune exec bench/main.exe`
   from any subdirectory agree on where BENCH_<date>.json lands. *)
let repo_root () =
  let rec up dir =
    if Sys.file_exists (Filename.concat dir "dune-project") then Some dir
    else
      let parent = Filename.dirname dir in
      if String.equal parent dir then None else up parent
  in
  up (Sys.getcwd ())

(* Provenance for trajectory comparisons: which commit, toolchain and
   machine produced the artifact. Best-effort — a missing git binary or a
   tarball checkout just yields a null commit. *)
let git_commit root =
  try
    let cmd =
      Printf.sprintf "git -C %s rev-parse HEAD 2>/dev/null"
        (Filename.quote root)
    in
    let ic = Unix.open_process_in cmd in
    let line = try Some (String.trim (input_line ic)) with End_of_file -> None in
    match (Unix.close_process_in ic, line) with
    | Unix.WEXITED 0, Some c when c <> "" -> Some c
    | _ -> None
  with _ -> None

let meta_json () =
  let commit =
    match Option.bind (repo_root ()) git_commit with
    | Some c -> Obs.Json.String c
    | None -> Obs.Json.Null
  in
  Obs.Json.Obj
    [
      ("commit", commit);
      ("ocaml", Obs.Json.String Sys.ocaml_version);
      ("hostname", Obs.Json.String (Unix.gethostname ()));
      ("default_jobs", Obs.Json.Int (Domain.recommended_domain_count ()));
    ]

let write_bench_json suites =
  let tm = Unix.localtime (Unix.time ()) in
  let name =
    Printf.sprintf "BENCH_%04d-%02d-%02d.json" (tm.Unix.tm_year + 1900)
      (tm.Unix.tm_mon + 1) tm.Unix.tm_mday
  in
  let path =
    match repo_root () with
    | Some root -> Filename.concat root name
    | None -> name
  in
  Obs.Artifact.write path (fun oc ->
      output_string oc
        (Obs.Json.to_string (json_of_suites ~meta:(meta_json ()) suites));
      output_char oc '\n');
  Format.printf "bench artifact written to %s@." path

(* Perf-trajectory check against the committed baseline. Prints the
   per-row diff whenever bench/BASELINE.json exists; rows only in one
   artifact (new suites, retired workloads) never fail it. The run exits
   nonzero on a regression only when BENCH_GATE is set — CI runs
   warn-only, a release checklist exports BENCH_GATE=1. The 1.03 default
   bar is the instrumentation disabled-path budget; Bench_diff's 2-sigma
   absolute guard keeps sub-microsecond rows from tripping it on timer
   noise. With no baseline to read (outside a checkout, or an unreadable
   file) the check says that it compared nothing, and fails under
   BENCH_GATE: a gate that compared nothing must not pass. *)
let check_baseline suites =
  let gate = Sys.getenv_opt "BENCH_GATE" <> None in
  let compared_nothing why =
    Format.printf "Perf trajectory: nothing compared (%s)%s@." why
      (if gate then "; BENCH_GATE fails the run" else "");
    not gate
  in
  match repo_root () with
  | None ->
      compared_nothing
        (Printf.sprintf "no dune-project above %s" (Sys.getcwd ()))
  | Some root -> (
      let path = Filename.concat root "bench/BASELINE.json" in
      if not (Sys.file_exists path) then
        compared_nothing (Printf.sprintf "%s does not exist" path)
      else
        let contents =
          let ic = open_in_bin path in
          Fun.protect
            ~finally:(fun () -> close_in ic)
            (fun () -> really_input_string ic (in_channel_length ic))
        in
        match Stats.Bench_diff.artifact_of_string contents with
        | Error e ->
            compared_nothing (Printf.sprintf "bench baseline %s: %s" path e)
        | Ok old_ ->
            (* Only the suites this run produced: the baseline's other
               suites were not measured, not dropped. *)
            let old_ =
              {
                old_ with
                a_suites =
                  List.filter
                    (fun (name, _) -> List.mem_assoc name suites)
                    old_.a_suites;
              }
            in
            let new_ =
              {
                Stats.Bench_diff.a_date = None;
                a_suites =
                  List.map
                    (fun (name, rows) ->
                      ( name,
                        List.map
                          (fun r ->
                            {
                              Stats.Bench_diff.e_name = r.row_name;
                              e_mean_s = r.mean_s;
                              e_stddev_s = r.stddev_s;
                              e_minor_words = r.minor_words;
                              e_speedup =
                                (match none_min_of rows r.row_name with
                                | Some none when r.min_s > 0. ->
                                    Some (none /. r.min_s)
                                | _ -> None);
                            })
                          rows ))
                    suites;
              }
            in
            let threshold =
              match
                Option.bind
                  (Sys.getenv_opt "BENCH_GATE_THRESHOLD")
                  float_of_string_opt
              with
              | Some t -> t
              | None -> 1.03
            in
            let report =
              Stats.Bench_diff.diff ~threshold ~old_ ~new_ ()
            in
            Format.printf "Perf trajectory vs %s:@.%a@." path
              Stats.Bench_diff.pp report;
            Stats.Bench_diff.regressions report = [] || not gate)

(* ------------------------------------------------------------------ *)
(* Bechamel tables (stdout, unchanged)                                 *)

let micro_rows () =
  let workloads = micro_workloads () in
  let tests = micro_tests workloads in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~stabilize:true ()
  in
  let table = ref (Stats.Table.make ~headers:[ "benchmark"; "time/run" ]) in
  List.iter
    (fun test ->
      let results = Benchmark.all cfg instances test in
      let analysis = Analyze.all ols Instance.monotonic_clock results in
      Hashtbl.iter
        (fun name ols_result ->
          let cell =
            match Analyze.OLS.estimates ols_result with
            | Some (est :: _) ->
                if est > 1_000_000.0 then
                  Printf.sprintf "%.2f ms" (est /. 1_000_000.0)
                else if est > 1_000.0 then
                  Printf.sprintf "%.2f us" (est /. 1_000.0)
                else Printf.sprintf "%.0f ns" est
            | Some [] | None -> "-"
          in
          table := Stats.Table.add_row !table [ name; cell ])
        analysis)
    tests;
  Format.printf "Micro-benchmarks (Bechamel, monotonic clock):@.%a@."
    Stats.Table.render !table;
  bench_rows workloads

let mc_rows () =
  let rows = bench_rows (mc_workloads ()) in
  let table =
    List.fold_left
      (fun table r ->
        let speedup =
          match serial_mean_of rows r.row_name with
          | Some serial when r.mean_s > 0. ->
              Printf.sprintf "%.2fx" (serial /. r.mean_s)
          | _ -> "-"
        in
        Stats.Table.add_row table
          [
            r.row_name;
            Printf.sprintf "%.2f ms" (r.mean_s *. 1_000.0);
            speedup;
          ])
      (Stats.Table.make ~headers:[ "sweep"; "time/run"; "vs serial" ])
      rows
  in
  Format.printf "Model-checker sweeps (serial vs incremental):@.%a@."
    Stats.Table.render table;
  rows

let reduction_rows () =
  let rows = bench_rows (reduction_workloads ()) in
  let table =
    List.fold_left
      (fun table r ->
        let speedup =
          match none_min_of rows r.row_name with
          | Some none when r.min_s > 0. ->
              Printf.sprintf "%.2fx" (none /. r.min_s)
          | _ -> "-"
        in
        Stats.Table.add_row table
          [
            r.row_name;
            Printf.sprintf "%.2f ms" (r.mean_s *. 1_000.0);
            speedup;
          ])
      (Stats.Table.make ~headers:[ "sweep"; "time/run"; "vs none" ])
      rows
  in
  Format.printf "State-space reduction (none vs dedup vs dedup+sym):@.%a@."
    Stats.Table.render table;
  rows

(* The no-pessimisation gate: every reduced row must at least match its
   unreduced "/none" sibling. Returns the offending rows. *)
let reduction_regressions rows =
  List.filter_map
    (fun r ->
      match none_min_of rows r.row_name with
      | Some none when r.min_s > 0. && none /. r.min_s < 1.0 ->
          Some (r.row_name, none /. r.min_s)
      | _ -> None)
    rows

let check_reduction_gate rows =
  match reduction_regressions rows with
  | [] -> true
  | slow ->
      List.iter
        (fun (name, speedup) ->
          Format.eprintf
            "reduction gate: %s is %.2fx vs its /none sibling (must be >= \
             1.0)@."
            name speedup)
        slow;
      false

let fuzz_rows () =
  let rows = bench_rows (fuzz_workloads ()) in
  let campaign_runs = 60. in
  let table =
    List.fold_left
      (fun table r ->
        let overhead =
          match serial_mean_of rows r.row_name with
          | Some off when r.mean_s > 0. ->
              Printf.sprintf "%.2fx" (r.mean_s /. off)
          | _ -> "-"
        in
        Stats.Table.add_row table
          [
            r.row_name;
            Printf.sprintf "%.2f ms" (r.mean_s *. 1_000.0);
            (if r.mean_s > 0. then
               Printf.sprintf "%.0f" (campaign_runs /. r.mean_s)
             else "-");
            overhead;
          ])
      (Stats.Table.make
         ~headers:[ "campaign"; "time/run"; "runs/s"; "vs monitors-off" ])
      rows
  in
  Format.printf
    "Fuzz campaigns (60 runs each, online monitors on vs off):@.%a@."
    Stats.Table.render table;
  rows

let obs_rows () =
  let rows = bench_rows (obs_workloads ()) in
  let table =
    List.fold_left
      (fun table r ->
        let overhead =
          match none_mean_of rows r.row_name with
          | Some none when none > 0. ->
              Printf.sprintf "%.3fx" (r.mean_s /. none)
          | _ -> "-"
        in
        Stats.Table.add_row table
          [
            r.row_name;
            Printf.sprintf "%.3f ms" (r.mean_s *. 1_000.0);
            (match r.minor_words with
            | Some w -> Printf.sprintf "%.0f" w
            | None -> "-");
            overhead;
          ])
      (Stats.Table.make
         ~headers:[ "workload"; "time/run"; "minor words"; "vs none" ])
      rows
  in
  Format.printf "Instrumentation overhead (off vs each instrument):@.%a@."
    Stats.Table.render table;
  rows

(* ------------------------------------------------------------------ *)
(* The crash-safety suite: checkpointing overhead on the sweep driver   *)

(* Sibling rows run the same Distrib task loop with checkpointing off
   ("/none") and on ("/checkpoint", snapshotting every 8 shards — the
   CLI's default cadence — to a temp file through the same atomic
   tmp+rename path `ipi sweep --checkpoint` uses). The binary scope is
   the representative checkpoint-worthy workload: its 2^n shards are
   whole per-assignment sweeps, like the long sweeps people actually
   interrupt, rather than sub-millisecond first-choice subtrees. The
   gate below holds the ratio to <= 1.10: serializing completed shards
   must stay in the noise of sweeping them. *)
let crash_safety_workloads () =
  let c52 = Config.make ~n:5 ~t:2 in
  let spec =
    Mc.Distrib.make ~reduce:Mc.Distrib.Rdedup
      ~algo:Expt.Registry.floodset.Expt.Registry.algo c52 Mc.Distrib.Binary
  in
  let ckpt = Filename.temp_file "ipi-bench-checkpoint" ".json" in
  at_exit (fun () -> try Sys.remove ckpt with Sys_error _ -> ());
  let prefix = "crash-safety/floodset-n5t2-binary-dedup" in
  [
    plain (prefix ^ "/none") (drive spec);
    plain (prefix ^ "/checkpoint") (drive ~checkpoint:(ckpt, 8) spec);
  ]

let crash_safety_budget = 1.10

(* Gate on best-observed times: the workload runs for ~100ms and only a
   handful of samples fit the timing budget, so a single disk-latency or
   scheduler outlier in either row's mean swings the ratio by several
   percent. The minimum is what the checkpointing machinery actually
   costs when the machine cooperates, and that is the number the budget
   bounds. *)
let crash_safety_regressions rows =
  List.filter_map
    (fun r ->
      match none_min_of rows r.row_name with
      | Some none when none > 0. && r.min_s /. none > crash_safety_budget ->
          Some (r.row_name, r.min_s /. none)
      | _ -> None)
    rows

let check_crash_safety_gate rows =
  match crash_safety_regressions rows with
  | [] -> true
  | slow ->
      List.iter
        (fun (name, ratio) ->
          Format.eprintf
            "crash-safety gate: %s is %.2fx vs its /none sibling (budget \
             %.2fx)@."
            name ratio crash_safety_budget)
        slow;
      false

(* Interleaved paired sampling. [bench_rows] times each workload in its own
   window, which is fine for display but fatal for a ratio gate on a loaded
   machine: background load drifting between the /none window and the
   /checkpoint window shows up as a phantom overhead (or a phantom speedup)
   of 10-20% on a ~110ms workload. Alternating the two workloads sample by
   sample puts both rows in the same window, so drift hits them equally and
   the min-vs-min ratio reflects the checkpointing machinery alone. *)
let interleaved_rows workloads =
  let workloads = Array.of_list workloads in
  let pairs = 12 in
  Array.iter
    (fun w ->
      w.fn ();
      w.fn ())
    workloads;
  let samples = Array.map (fun _ -> ref []) workloads in
  for _ = 1 to pairs do
    Array.iteri
      (fun i w ->
        let t0 = Unix.gettimeofday () in
        w.fn ();
        samples.(i) := (Unix.gettimeofday () -. t0) :: !(samples.(i)))
      workloads
  done;
  Array.to_list
    (Array.mapi
       (fun i w ->
         let h = Obs.Metrics.histogram (Obs.Metrics.create ()) "wall_clock_s" in
         List.iter (Obs.Metrics.observe h) !(samples.(i));
         let runs, mean_s, min_s, stddev_s =
           match Obs.Metrics.summary h with
           | None -> (0, 0., 0., 0.)
           | Some s ->
               (s.Obs.Metrics.count, s.Obs.Metrics.mean, s.Obs.Metrics.min,
                s.Obs.Metrics.stddev)
         in
         let messages, bytes = cost_of_workload w in
         let minor_words, promoted_words, major_collections =
           alloc_of_workload w
         in
         {
           row_name = w.name;
           runs;
           mean_s;
           min_s;
           stddev_s;
           messages;
           bytes;
           minor_words;
           promoted_words;
           major_collections;
         })
       workloads)

let crash_safety_rows () =
  let rows = interleaved_rows (crash_safety_workloads ()) in
  let table =
    List.fold_left
      (fun table r ->
        let overhead =
          match none_min_of rows r.row_name with
          | Some none when none > 0. ->
              Printf.sprintf "%.3fx" (r.min_s /. none)
          | _ -> "-"
        in
        Stats.Table.add_row table
          [
            r.row_name;
            Printf.sprintf "%.2f ms" (r.mean_s *. 1_000.0);
            Printf.sprintf "%.2f ms" (r.min_s *. 1_000.0);
            overhead;
          ])
      (Stats.Table.make
         ~headers:[ "sweep"; "time/run"; "best/run"; "vs none (best)" ])
      rows
  in
  Format.printf
    "Crash-safety (checkpointing off vs every 8 shards, budget %.2fx on \
     best-observed times):@.%a@."
    crash_safety_budget Stats.Table.render table;
  rows

(* ------------------------------------------------------------------ *)
(* Scaling curve: FloodMin as the engine's zero-allocation witness      *)

(* FloodMin holds the whole system in a converged steady state for as many
   rounds as we ask (its state and messages are physically reused once
   estimates converge), so these rows measure the engine itself: the
   sink-free fast path at n far beyond the int-bitset limit, and the
   per-round allocation floor of the in-place tail. *)

let quiet_scs = Sim.Schedule.make ~model:Sim.Model.Scs ~gst:Round.first []

let floodmin_algo ~extra : Sim.Algorithm.packed =
  let module P = struct
    let extra_rounds = extra
  end in
  Sim.Algorithm.Packed (module Baselines.Floodmin.Make (P))

(* [rounds] is the decision round: FloodMin decides at [t + 1 + extra]. The
   default round bound grows with [n], not with [extra], so pin it
   explicitly. *)
let floodmin_workload ~prefix ~n ~t ~rounds =
  let config = Config.make ~n ~t in
  let algo = floodmin_algo ~extra:(rounds - t - 1) in
  let max_rounds = rounds + 5 in
  {
    name = Printf.sprintf "%s/floodmin-n%d-r%d" prefix n rounds;
    fn =
      (fun () ->
        ignore
          (Sim.Runner.run ~max_rounds algo config
             ~proposals:(Sim.Runner.distinct_proposals config)
             quiet_scs));
    (* No counted pass: a counting sink attaches the engine's observer,
       which routes all n^2 copies every round and costs minutes per run at
       n = 10,000, and message counts on a quiet FloodMin run are just
       n^2 * rounds anyway. *)
    counted = None;
  }

(* The steady-state allocation probe: one profiled run, per-round GC
   deltas. The mean amortises the handful of allocating rounds (round 1
   convergence, the decision round, spine rebuilds on halts) over the long
   converged plateau, which is exactly the "steady state" the engine
   advertises. *)
let steady_words_per_round ~n ~t ~rounds =
  let config = Config.make ~n ~t in
  let algo = floodmin_algo ~extra:(rounds - t - 1) in
  let a = Obs.Prof.acc () in
  ignore
    (Sim.Runner.run ~prof:a ~max_rounds:(rounds + 5) algo config
       ~proposals:(Sim.Runner.distinct_proposals config)
       quiet_scs);
  let m = Obs.Metrics.create () in
  Obs.Prof.flush a ~metrics:m ~prefix:"sim" ~per:"round";
  Option.map
    (fun s -> s.Obs.Metrics.mean)
    (Obs.Metrics.find_histogram m "sim.minor_words_per_round")

(* In these rows [minor_words] means words per *round* (from the profiled
   pass above), not per run: that is the number the zero-alloc contract
   bounds, and it is machine-independent. *)
let steady_row ~prefix ~n ~t ~rounds =
  let w = floodmin_workload ~prefix:(prefix ^ "/steady") ~n ~t ~rounds in
  let runs, mean_s, min_s, stddev_s = time_workload w in
  {
    row_name = w.name;
    runs;
    mean_s;
    min_s;
    stddev_s;
    messages = None;
    bytes = None;
    minor_words = steady_words_per_round ~n ~t ~rounds;
    promoted_words = None;
    major_collections = None;
  }

let steady_words_budget = 8.0

(* The zero-alloc gate: deterministic (allocation does not depend on the
   machine), so it is enforced like the reduction gate whenever its rows
   ran. *)
let is_steady_row name =
  let marker = "/steady/" in
  let ln = String.length name and lm = String.length marker in
  let rec scan i = i + lm <= ln && (String.sub name i lm = marker || scan (i + 1)) in
  scan 0

let check_steady_gate rows =
  let offenders =
    List.filter
      (fun r ->
        is_steady_row r.row_name
        && match r.minor_words with
           | Some w -> w > steady_words_budget
           | None -> false)
      rows
  in
  match offenders with
  | [] -> true
  | slow ->
      List.iter
        (fun r ->
          Format.eprintf
            "steady-state gate: %s allocates %.1f minor words/round (budget \
             %.0f)@."
            r.row_name
            (Option.value r.minor_words ~default:0.)
            steady_words_budget)
        slow;
      false

let scaling_workloads ~smoke ~prefix =
  if smoke then [ floodmin_workload ~prefix ~n:100 ~t:2 ~rounds:50 ]
  else
    [
      floodmin_workload ~prefix ~n:100 ~t:2 ~rounds:50;
      floodmin_workload ~prefix ~n:1_000 ~t:2 ~rounds:10;
      floodmin_workload ~prefix ~n:10_000 ~t:1 ~rounds:2;
    ]

let scaling_rows_named ~smoke ~prefix () =
  let rows = bench_rows (scaling_workloads ~smoke ~prefix) in
  let rows = rows @ [ steady_row ~prefix ~n:100 ~t:2 ~rounds:2_000 ] in
  let table =
    List.fold_left
      (fun table r ->
        Stats.Table.add_row table
          [
            r.row_name;
            Printf.sprintf "%.3f ms" (r.mean_s *. 1_000.0);
            (if r.mean_s > 0. then Printf.sprintf "%.0f" (1. /. r.mean_s)
             else "-");
            (match r.minor_words with
            | Some w -> Printf.sprintf "%.1f" w
            | None -> "-");
          ])
      (Stats.Table.make
         ~headers:[ "workload"; "time/run"; "runs/s"; "minor words" ])
      rows
  in
  Format.printf
    "Scaling curve (FloodMin; steady-row minor words are per round):@.%a@."
    Stats.Table.render table;
  rows

let scaling_rows () = scaling_rows_named ~smoke:false ~prefix:"scaling" ()

(* The smoke variant CI runs: n = 100 only, and row names prefixed
   [scaling-smoke/] so they are absent from bench/BASELINE.json — the
   wall-clock columns then cannot trip the time gate on a noisy runner,
   while the deterministic steady-state allocation gate still applies. *)
let scaling_smoke_rows () =
  scaling_rows_named ~smoke:true ~prefix:"scaling-smoke" ()

(* ------------------------------------------------------------------ *)
(* The mc-alloc suite: checker-core allocation per DFS round            *)

(* DESIGN §16's contract in numbers: minor words per checker-core round
   over the *distinct* (post-dedup) work of a binary dedup sweep at n=5,
   t=2 — the arena DFS's inner loop, branch snapshot/restore included.
   Like the steady-state row this is deterministic (allocation does not
   depend on the machine), so the gate below is unconditional. FloodSet
   read ≈140 words/round before the arena port; its budget holds it at
   the arena's level. A(t+2) is the paper's algorithm, with Ws_flood's
   halt sets inside every state the table keys: its budget is the 220.39
   words/round it read when the row was added, plus 5 %. *)
let mc_alloc_cases =
  [
    ("mc-alloc/floodset-n5t2-binary/dedup", Expt.Registry.floodset, 16.0);
    ("mc-alloc/at2-n5t2-binary/dedup", Expt.Registry.at_plus_2, 232.0);
  ]

let mc_alloc_spec (entry : Expt.Registry.entry) =
  Mc.Distrib.make ~reduce:Mc.Distrib.Rdedup ~algo:entry.Expt.Registry.algo
    (Config.make ~n:5 ~t:2) Mc.Distrib.Binary

let mc_alloc_words_per_round spec =
  let a = Obs.Prof.acc () in
  drive ~prof:a spec ();
  let m = Obs.Metrics.create () in
  Obs.Prof.flush a ~metrics:m ~prefix:"mc" ~per:"round";
  Option.map
    (fun s -> s.Obs.Metrics.mean)
    (Obs.Metrics.find_histogram m "mc.minor_words_per_round")

(* [minor_words] on these rows means words per checker-core *round* over
   distinct work (from the profiled pass), not per run — the
   machine-independent number the arena contract bounds. *)
let mc_alloc_rows () =
  List.map
    (fun (name, (entry : Expt.Registry.entry), budget) ->
      let spec = mc_alloc_spec entry in
      let runs, mean_s, min_s, stddev_s =
        time_workload (plain name (drive spec))
      in
      let words = mc_alloc_words_per_round spec in
      Format.printf
        "Checker-core allocation (%s n=5 t=2 binary dedup sweep): %s minor \
         words/round (budget %.0f)@."
        entry.Expt.Registry.label
        (match words with Some w -> Printf.sprintf "%.2f" w | None -> "-")
        budget;
      {
        row_name = name;
        runs;
        mean_s;
        min_s;
        stddev_s;
        messages = None;
        bytes = None;
        minor_words = words;
        promoted_words = None;
        major_collections = None;
      })
    mc_alloc_cases

(* The checker-core allocation gate: enforced whenever its rows ran,
   regardless of BENCH_GATE, exactly like the steady-state gate. A probe
   failure (None) also fails — a gate that cannot read its number must
   not pass. *)
let check_mc_alloc_gate rows =
  List.for_all
    (fun r ->
      match
        List.find_opt (fun (name, _, _) -> name = r.row_name) mc_alloc_cases
      with
      | None -> true
      | Some (_, _, budget) -> (
          match r.minor_words with
          | Some w when w <= budget -> true
          | Some w ->
              Format.eprintf
                "mc-alloc gate: %s allocates %.1f minor words/round (budget \
                 %.0f)@."
                r.row_name w budget;
              false
          | None ->
              Format.eprintf "mc-alloc gate: %s has no allocation probe@."
                r.row_name;
              false))
    rows

(* ------------------------------------------------------------------ *)
(* Entry point                                                          *)

let run_tables () = Expt.Suite.run_all Format.std_formatter

(* Run the named benchmark suites (one shared artifact, so `main.exe mc
   mc-reduction` keeps both suites' rows in the same BENCH_<date>.json),
   then apply the reduction gate if its suite ran. *)
let run_suites names =
  let suites =
    List.map
      (fun name ->
        let rows =
          match name with
          | "micro" -> micro_rows ()
          | "mc" -> mc_rows ()
          | "mc-reduction" -> reduction_rows ()
          | "fuzz" -> fuzz_rows ()
          | "obs" -> obs_rows ()
          | "crash-safety" -> crash_safety_rows ()
          | "scaling" -> scaling_rows ()
          | "scaling-smoke" -> scaling_smoke_rows ()
          | "mc-alloc" -> mc_alloc_rows ()
          | _ -> assert false
        in
        (name, rows))
      names
  in
  write_bench_json suites;
  let rows_of suite =
    List.concat_map
      (fun (name, rows) -> if name = suite then rows else [])
      suites
  in
  let reduction_ok = check_reduction_gate (rows_of "mc-reduction") in
  let crash_safety_ok = check_crash_safety_gate (rows_of "crash-safety") in
  let steady_ok =
    check_steady_gate (List.concat_map (fun (_, rows) -> rows) suites)
  in
  let mc_alloc_ok = check_mc_alloc_gate (rows_of "mc-alloc") in
  let baseline_ok = check_baseline suites in
  if
    not
      (reduction_ok && crash_safety_ok && steady_ok && mc_alloc_ok
     && baseline_ok)
  then exit 1

let is_suite = function
  | "micro" | "mc" | "mc-reduction" | "fuzz" | "obs" | "crash-safety"
  | "scaling" | "scaling-smoke" | "mc-alloc" ->
      true
  | _ -> false

let () =
  match Array.to_list Sys.argv with
  | [] | _ :: [] ->
      run_tables ();
      run_suites
        [
          (* mc-alloc is deliberately absent: its row must stay out of
             bench/BASELINE.json so CI can run it under BENCH_GATE=1
             without the wall-clock diff flaking on a shared runner —
             its enforced check is the unconditional words/round gate. *)
          "micro"; "mc"; "mc-reduction"; "fuzz"; "obs"; "crash-safety";
          "scaling";
        ]
  | _ :: [ "tables" ] -> run_tables ()
  | _ :: names when List.for_all is_suite names -> run_suites names
  | _ :: names ->
      List.iter
        (fun name ->
          match Expt.Suite.find name with
          | Some e ->
              e.Expt.Suite.run Format.std_formatter;
              Format.print_newline ()
          | None ->
              Format.eprintf
                "unknown experiment %S (e1..e10, tables, micro, mc, \
                 mc-reduction, fuzz, obs, crash-safety, scaling, \
                 scaling-smoke, mc-alloc)@."
                name;
              exit 2)
        names
