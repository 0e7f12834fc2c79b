(* ipi — "the inherent price of indulgence" command-line driver.

   Subcommands:
     ipi list                      algorithms and experiments
     ipi experiments [NAME ...]    run all (or the named) experiments
     ipi run ...                   run one algorithm on one schedule
     ipi sweep ...                 exhaustive serial-schedule sweep
     ipi attack ...                run the lower-bound attacks *)

open Kernel

let std = Format.std_formatter

(* ------------------------------------------------------------------ *)
(* Arguments shared by subcommands                                      *)

let algo_arg =
  let doc = "Algorithm label (see `ipi list`)." in
  Cmdliner.Arg.(
    value & opt string "A(t+2)" & info [ "a"; "algo" ] ~docv:"LABEL" ~doc)

(* -n and -t as one validated configuration: a pair [Config.make] refuses
   is a usage error, reported in one line before anything runs. *)
let config_arg =
  let n_arg =
    Cmdliner.Arg.(value & opt int 5 & info [ "n" ] ~docv:"N" ~doc:"Processes.")
  in
  let t_arg =
    Cmdliner.Arg.(
      value & opt int 2 & info [ "t" ] ~docv:"T" ~doc:"Crash resilience bound.")
  in
  let make n t =
    match Config.make ~n ~t with
    | config -> config
    | exception Invalid_argument _ ->
        Format.eprintf "a system needs 0 <= t < n; got n=%d, t=%d@." n t;
        exit 2
  in
  Cmdliner.Term.(const make $ n_arg $ t_arg)

let seed_arg =
  Cmdliner.Arg.(
    value & opt int 1 & info [ "seed" ] ~docv:"SEED" ~doc:"Random seed.")

let faults_arg =
  Cmdliner.Arg.(
    value
    & opt
        (enum
           [
             ("crash", Sim.Model.Crash_only);
             ("send-omit", Sim.Model.Send_omit_only);
             ("recv-omit", Sim.Model.Recv_omit_only);
             ("mixed", Sim.Model.Mixed);
           ])
        Sim.Model.Crash_only
    & info [ "faults" ] ~docv:"MENU"
        ~doc:
          "Adversary fault menu: crash (default), send-omit (faulty \
           processes drop outgoing messages without crashing), recv-omit \
           (drop incoming), or mixed (crashes and omissions under a split \
           budget). Omission menus split the resilience bound t into \
           t_crash + t_omit, keeping the soundness rule t_crash + t_omit \
           <= t.")

let omit_budget_arg =
  let non_negative =
    Cmdliner.Arg.conv'
      ( (fun s ->
          match int_of_string_opt s with
          | Some k when k >= 0 -> Ok k
          | _ -> Error (Printf.sprintf "expected an integer >= 0, got %S" s)),
        Format.pp_print_int )
  in
  Cmdliner.Arg.(
    value & opt non_negative 1
    & info [ "omit-budget" ] ~docv:"N"
        ~doc:
          "Omission budget t_omit for the non-crash fault menus (default \
           1, clamped to t); with --faults mixed the crash side keeps \
           t - t_omit.")

let lookup_algo label =
  match Expt.Registry.find label with
  | Some entry -> entry
  | None ->
      Format.eprintf "unknown algorithm %S; try `ipi list`@." label;
      exit 2

(* A registry entry outside its resilience regime is a usage error: it is
   refused before anything runs, naming the entry and the regime it needs,
   instead of every run failing on it (or blaming another algorithm). *)
let lookup_applicable label config =
  let entry = lookup_algo label in
  if not (Expt.Registry.applicable entry config) then begin
    Format.eprintf "%s requires %a; got n=%d, t=%d@." entry.Expt.Registry.label
      Expt.Registry.pp_regime entry.Expt.Registry.regime (Config.n config)
      (Config.t config);
    exit 2
  end;
  entry

(* The lower-bound constructions of [attack] and [figure1] live in the
   indulgent regime. *)
let require_indulgent what config =
  if not (Config.has_majority_resilience config) then begin
    Format.eprintf "%s requires 0 < t < n/2; got n=%d, t=%d@." what
      (Config.n config) (Config.t config);
    exit 2
  end

(* The deliberately broken fuzz fixtures are not consensus algorithms, so
   they live outside the registry; `run`, `sweep` and `fuzz` accept them
   anyway so a counterexample can be replayed against the algorithm that
   produced it, and so the containment paths can be driven end to end. *)
let lookup_runnable label ~raise_at config =
  match label with
  | "eager-floodset" -> Fuzz.Faulty.eager_floodset
  | "raising" -> Fuzz.Faulty.raising ~at:raise_at
  | "raising-init" -> Fuzz.Faulty.raising_init
  | _ -> (lookup_applicable label config).Expt.Registry.algo

(* ------------------------------------------------------------------ *)
(* ipi list                                                             *)

let list_cmd =
  let run () =
    Format.fprintf std "Algorithms:@.";
    List.iter
      (fun e ->
        Format.fprintf std "  %-14s %-10s %s@." e.Expt.Registry.label
          (Sim.Model.to_string e.Expt.Registry.model)
          e.Expt.Registry.reference)
      Expt.Registry.all;
    Format.fprintf std "@.Experiments:@.";
    List.iter
      (fun e ->
        Format.fprintf std "  %-5s %s@." e.Expt.Suite.name e.Expt.Suite.title)
      Expt.Suite.all
  in
  Cmdliner.Cmd.v
    (Cmdliner.Cmd.info "list" ~doc:"List algorithms and experiments.")
    Cmdliner.Term.(const run $ const ())

(* ------------------------------------------------------------------ *)
(* ipi experiments                                                      *)

let experiments_cmd =
  let names_arg =
    Cmdliner.Arg.(
      value & pos_all string []
      & info [] ~docv:"NAME" ~doc:"Experiment ids (default: all).")
  in
  let run names =
    let selected =
      match names with
      | [] -> Expt.Suite.all
      | names ->
          List.map
            (fun name ->
              match Expt.Suite.find name with
              | Some e -> e
              | None ->
                  Format.eprintf "unknown experiment %S; try `ipi list`@." name;
                  exit 2)
            names
    in
    List.iter
      (fun e ->
        (* A measurement fails with [Failure] (a violation, a crashed run):
           one line naming the experiment, and exit 1. *)
        (try e.Expt.Suite.run std
         with Failure msg ->
           Format.pp_print_flush std ();
           Format.eprintf "%s: %s@." e.Expt.Suite.name msg;
           exit 1);
        Format.fprintf std "@.")
      selected
  in
  Cmdliner.Cmd.v
    (Cmdliner.Cmd.info "experiments"
       ~doc:"Regenerate the paper's tables and figures.")
    Cmdliner.Term.(const run $ names_arg)

(* ------------------------------------------------------------------ *)
(* ipi run                                                              *)

let read_file path =
  try
    let ic = open_in path in
    let len = in_channel_length ic in
    let s = really_input_string ic len in
    close_in ic;
    s
  with Sys_error msg ->
    Format.eprintf "cannot read %s: %s@." path msg;
    exit 2

(* All machine-readable artifacts go through Obs.Artifact: the published
   path either holds the previous complete file or the new complete one,
   never a truncated prefix — even under SIGKILL or the chaos harness. *)
let write_file path write =
  try Obs.Artifact.write path write
  with Sys_error msg | Unix.Unix_error (_, _, msg) ->
    Format.eprintf "cannot write %s: %s@." path msg;
    exit 2

(* ------------------------------------------------------------------ *)
(* Progress/heartbeat wiring shared by sweep and fuzz                   *)

let progress_flag_arg =
  Cmdliner.Arg.(
    value & flag
    & info [ "progress" ]
        ~doc:
          "Live progress on stderr — items done, runs/s, dedup hit-rate, \
           ETA. A single rewriting line on a TTY, plain lines otherwise.")

let heartbeat_arg =
  Cmdliner.Arg.(
    value
    & opt (some string) None
    & info [ "heartbeat" ] ~docv:"FILE"
        ~doc:
          "Write every progress snapshot to $(docv) as JSONL — a \
           machine-readable heartbeat for CI logs and dashboards.")

(* The meter plus a finalizer that emits the last (final=true) snapshot.
   Progress display never affects results — it only observes counts the
   drivers were already producing. The heartbeat JSONL is rewritten
   atomically on every emission: a reader (or `ipi heartbeat-check`) never
   sees a torn line, only complete snapshots up to some sequence number. *)
let make_progress ~label ~show ~heartbeat =
  if (not show) && heartbeat = None then (Obs.Progress.disabled, fun () -> ())
  else begin
    let hb_lines = Buffer.create 256 in
    let tty = show && Unix.isatty Unix.stderr in
    let emit snap =
      Option.iter
        (fun path ->
          Buffer.add_string hb_lines
            (Obs.Json.to_string (Obs.Progress.snapshot_to_json snap));
          Buffer.add_char hb_lines '\n';
          try Obs.Artifact.write_string path (Buffer.contents hb_lines)
          with Sys_error msg | Unix.Unix_error (_, _, msg) ->
            Format.eprintf "cannot write %s: %s@." path msg;
            exit 2)
        heartbeat;
      if show then
        let line = Obs.Progress.render snap in
        if tty then begin
          Printf.eprintf "\r\027[K%s%!" line;
          if snap.Obs.Progress.final then prerr_newline ()
        end
        else Printf.eprintf "%s\n%!" line
    in
    let t = Obs.Progress.create ~label ~emit () in
    (t, fun () -> Obs.Progress.finish t)
  end

let read_schedule_file path =
  let contents = read_file path in
  match Sim.Codec.decode contents with
  | Ok schedule -> schedule
  | Error msg ->
      Format.eprintf "cannot parse %s: %s@." path msg;
      exit 2

let schedule_of_name config ~seed ~gst = function
  | file when String.length file > 1 && file.[0] = '@' ->
      read_schedule_file (String.sub file 1 (String.length file - 1))
  | "quiet" -> Sim.Schedule.make ~model:Sim.Model.Es ~gst:Round.first []
  | "chain" -> Workload.Cascade.chain config
  | "coordkill2" -> Workload.Cascade.coordinator_killer config ~phase_rounds:2
  | "coordkill4" -> Workload.Cascade.coordinator_killer config ~phase_rounds:4
  | "witness" -> Mc.Attack.witness_schedule config
  | "solo" -> Mc.Attack.solo_split_schedule config
  | "random-sync" ->
      Workload.Random_runs.synchronous_with_delays (Rng.create ~seed) config ()
  | "random-es" ->
      Workload.Random_runs.eventually_synchronous (Rng.create ~seed) config
        ~gst ()
  | other ->
      Format.eprintf
        "unknown schedule %S (quiet|chain|coordkill2|coordkill4|witness|solo|random-sync|random-es)@."
        other;
      exit 2

let run_cmd =
  let schedule_arg =
    Cmdliner.Arg.(
      value & opt string "quiet"
      & info [ "s"; "schedule" ] ~docv:"SCHEDULE"
          ~doc:
            "quiet | chain | coordkill2 | coordkill4 | witness | solo | \
             random-sync | random-es")
  in
  let gst_arg =
    Cmdliner.Arg.(
      value & opt int 4
      & info [ "gst" ] ~docv:"GST" ~doc:"gst for random-es schedules.")
  in
  let diagram_arg =
    Cmdliner.Arg.(
      value & flag & info [ "d"; "diagram" ] ~doc:"Print the run diagram.")
  in
  let dump_arg =
    Cmdliner.Arg.(
      value
      & opt (some string) None
      & info [ "dump" ] ~docv:"FILE"
          ~doc:
            "Save the schedule to $(docv) in the text format `ipi run -s \
             @$(docv)` replays.")
  in
  let trace_file_arg =
    Cmdliner.Arg.(
      value
      & opt (some string) None
      & info [ "trace" ] ~docv:"FILE"
          ~doc:"Write the run's structured event log to $(docv).")
  in
  let trace_format_arg =
    Cmdliner.Arg.(
      value
      & opt (enum [ ("jsonl", `Jsonl); ("chrome", `Chrome) ]) `Jsonl
      & info [ "trace-format" ] ~docv:"FORMAT"
          ~doc:
            "Event-log format: jsonl (one event per line, replayable with \
             `ipi trace`) or chrome (trace_event JSON, viewable in \
             Perfetto).")
  in
  let metrics_arg =
    Cmdliner.Arg.(
      value & flag
      & info [ "metrics" ]
          ~doc:"Count the run's events and print the metrics registry.")
  in
  let run label config seed schedule_name gst diagram dump trace_file
      trace_format metrics =
    let algo = lookup_runnable label ~raise_at:2 config in
    let schedule = schedule_of_name config ~seed ~gst schedule_name in
    (match Sim.Schedule.validate config schedule with
    | Ok () -> ()
    | Error e ->
        Format.eprintf "invalid schedule: %s@." e;
        exit 2);
    (match dump with
    | Some path ->
        write_file path (fun oc -> output_string oc (Sim.Codec.encode schedule));
        Format.fprintf std "schedule saved to %s@." path
    | None -> ());
    (* The diagram is drawn from the run's event stream. *)
    let mem_sink, drain =
      if diagram || trace_file <> None then Obs.Sink.memory ()
      else (Obs.Sink.noop, fun () -> [])
    in
    let registry = Obs.Metrics.create () in
    let sink =
      Obs.Sink.tee mem_sink
        (if metrics then Obs.Metrics.counting_sink registry else Obs.Sink.noop)
    in
    let prof = if metrics then Some (Obs.Prof.acc ()) else None in
    let trace =
      match
        Sim.Runner.run ~sink ?prof algo config
          ~proposals:(Sim.Runner.distinct_proposals config)
          schedule
      with
      | trace -> trace
      | exception Sim.Engine.Step_error e ->
          Format.eprintf "algorithm crashed: %a@." Sim.Engine.pp_step_error e;
          exit 2
      | exception ((Out_of_memory | Stack_overflow) as e) -> raise e
      | exception e ->
          (* Raised outside every round, e.g. by [init]. *)
          Format.eprintf "algorithm crashed: %s: %s@." (Sim.Algorithm.name algo)
            (Printexc.to_string e);
          exit 2
    in
    (* Traced runs also carry the §4 simulated failure-detector view. *)
    if (trace_file <> None || metrics) && trace.Sim.Trace.rounds_executed > 0
    then
      ignore
        (Fd.Simulate.history ~sink config schedule
           ~rounds:trace.Sim.Trace.rounds_executed);
    let events = drain () in
    Format.fprintf std "%a@." Sim.Trace.pp_summary trace;
    List.iter
      (fun v -> Format.fprintf std "VIOLATION: %a@." Sim.Props.pp_violation v)
      (Sim.Props.check trace);
    if diagram then
      Format.fprintf std "@.%a@." Obs.Replay.pp_diagram
        (Result.get_ok (Obs.Replay.of_events events));
    (match trace_file with
    | Some path ->
        write_file path (fun oc ->
            match trace_format with
            | `Jsonl -> Obs.Jsonl.to_channel oc events
            | `Chrome -> output_string oc (Obs.Chrome.to_string events));
        Format.fprintf std "event log (%d events) written to %s@."
          (List.length events) path
    | None -> ());
    (match prof with
    | Some a -> Obs.Prof.flush a ~metrics:registry ~prefix:"sim" ~per:"round"
    | None -> ());
    if metrics then Format.fprintf std "@.metrics:@.%a@." Obs.Metrics.pp registry
  in
  Cmdliner.Cmd.v
    (Cmdliner.Cmd.info "run" ~doc:"Run one algorithm on one schedule.")
    Cmdliner.Term.(
      const run $ algo_arg $ config_arg $ seed_arg $ schedule_arg $ gst_arg
      $ diagram_arg $ dump_arg $ trace_file_arg $ trace_format_arg
      $ metrics_arg)

(* ------------------------------------------------------------------ *)
(* ipi trace                                                            *)

let trace_cmd =
  let file_arg =
    Cmdliner.Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"FILE" ~doc:"A JSONL event log saved by `ipi run --trace`.")
  in
  let run path =
    match Obs.Jsonl.parse (read_file path) with
    | Error e ->
        Format.eprintf "cannot parse %s: %s@." path e;
        exit 2
    | Ok events -> (
        match Obs.Replay.of_events events with
        | Error e ->
            Format.eprintf "cannot replay %s: %s@." path e;
            exit 2
        | Ok run ->
            Format.fprintf std "%a@.@.%a@." Obs.Replay.pp_summary run
              Obs.Replay.pp_diagram run)
  in
  Cmdliner.Cmd.v
    (Cmdliner.Cmd.info "trace"
       ~doc:
         "Replay a saved JSONL event log into the run summary and ASCII \
          space/time diagram, without re-executing anything.")
    Cmdliner.Term.(const run $ file_arg)

(* ------------------------------------------------------------------ *)
(* ipi attack                                                           *)

let attack_cmd =
  let run label config =
    let entry = lookup_applicable label config in
    require_indulgent "the lower-bound attack" config;
    let report = Mc.Attack.run_witness entry.Expt.Registry.algo config in
    Format.fprintf std "%a@.@." Mc.Attack.pp_report report;
    Format.fprintf std "%a@." Obs.Replay.pp_diagram
      (Result.get_ok (Obs.Replay.of_events report.Mc.Attack.events));
    if report.Mc.Attack.violations = [] then
      Format.fprintf std "@.%s survives the lower-bound construction.@." label
    else exit 1
  in
  Cmdliner.Cmd.v
    (Cmdliner.Cmd.info "attack"
       ~doc:"Run the proof-guided ES attack against an algorithm.")
    Cmdliner.Term.(const run $ algo_arg $ config_arg)

(* ------------------------------------------------------------------ *)
(* ipi sweep / sweep-worker — shared shape flags and crash-safety
   plumbing                                                             *)

let binary_arg =
  Cmdliner.Arg.(
    value & flag
    & info [ "binary" ]
        ~doc:
          "Sweep all 2^n binary proposal assignments instead of the \
           single distinct-values assignment.")

let policy_arg =
  Cmdliner.Arg.(
    value
    & opt
        (enum
           [
             ("prefixes", Mc.Serial.Prefixes);
             ("all-subsets", Mc.Serial.All_subsets);
           ])
        Mc.Serial.Prefixes
    & info [ "policy" ] ~docv:"POLICY"
        ~doc:
          "Receiver sets per crash: prefixes (polynomial branching, \
           default) or all-subsets (exact, exponential).")

let horizon_arg =
  Cmdliner.Arg.(
    value
    & opt (some int) None
    & info [ "horizon" ] ~docv:"ROUNDS"
        ~doc:"Crash horizon in rounds (default t + 2).")

let table_cap_arg =
  Cmdliner.Arg.(
    value
    & opt (some int) None
    & info [ "table-cap" ] ~docv:"N"
        ~doc:
          "Bound the dedup transposition table to $(docv) in-memory \
           entries; overflow entries go to --spill-dir when given, \
           otherwise the overflow is not memoized (aggregates are \
           bit-identical either way). Applies to --reduce dedup and dedup+sym.")

let spill_dir_arg =
  Cmdliner.Arg.(
    value
    & opt (some string) None
    & info [ "spill-dir" ] ~docv:"DIR"
        ~doc:
          "Spill transposition entries over --table-cap to a temporary \
           file in $(docv), keeping memoization exact under a bounded \
           heap.")

let reduce_arg =
  Cmdliner.Arg.(
    value
    & opt
        (enum
           [
             ("none", Mc.Distrib.Rnone);
             ("dedup", Mc.Distrib.Rdedup);
             ("dedup+sym", Mc.Distrib.Rsym);
           ])
        Mc.Distrib.Rnone
    & info [ "reduce" ] ~docv:"RED"
        ~doc:
          "State-space reduction: none (default), dedup (transposition \
           table over canonical state fingerprints; bit-identical \
           verdicts), or dedup+sym (additionally collapse --binary \
           assignments to the n+1 proposal-count orbits when the \
           algorithm is symmetric; exact aggregates, one witness per \
           orbit).")

let faults_flag = function
  | Sim.Model.Crash_only -> "crash"
  | Sim.Model.Send_omit_only -> "send-omit"
  | Sim.Model.Recv_omit_only -> "recv-omit"
  | Sim.Model.Mixed -> "mixed"

let policy_flag = function
  | Mc.Serial.Prefixes -> "prefixes"
  | Mc.Serial.All_subsets -> "all-subsets"

let reduce_flag = function
  | Mc.Distrib.Rnone -> "none"
  | Mc.Distrib.Rdedup -> "dedup"
  | Mc.Distrib.Rsym -> "dedup+sym"

let distrib_spec ~algo ~config ~faults ~omit_budget ~policy ~horizon ~binary
    ~reduce ~table_cap ~spill_dir =
  Mc.Distrib.make ~faults ~omit_budget ~policy ?horizon ~reduce ?table_cap
    ?spill_dir ~algo config
    (if binary then Mc.Distrib.Binary
     else Mc.Distrib.Fixed (Sim.Runner.distinct_proposals config))

(* The checkpoint's identity block: everything that shapes the task list
   or the per-task results. A snapshot resumes only a sweep with the same
   parameters (canonical JSON equality in Checkpoint.compatible). *)
let sweep_params ~label ~n ~t ~faults ~omit_budget ~horizon ~binary ~policy
    ~reduce =
  Obs.Json.Obj
    [
      ("kind", Obs.Json.String "sweep");
      ("algo", Obs.Json.String label);
      ("n", Obs.Json.Int n);
      ("t", Obs.Json.Int t);
      ("faults", Obs.Json.String (faults_flag faults));
      ("omit_budget", Obs.Json.Int omit_budget);
      ("policy", Obs.Json.String (policy_flag policy));
      ( "horizon",
        match horizon with Some h -> Obs.Json.Int h | None -> Obs.Json.Null );
      ("scope", Obs.Json.String (if binary then "binary" else "fixed"));
      ("reduce", Obs.Json.String (reduce_flag reduce));
    ]

(* The supervised driver respawns workers as this exact invocation: the
   flags mirror the parent's sweep shape, so a worker computes the same
   tasks the parent would. *)
let sweep_worker_argv ~label ~n ~t ~faults ~omit_budget ~policy ~horizon
    ~binary ~reduce ~table_cap ~spill_dir =
  [
    Sys.executable_name;
    "sweep-worker";
    "-a";
    label;
    "-n";
    string_of_int n;
    "-t";
    string_of_int t;
    "--faults";
    faults_flag faults;
    "--omit-budget";
    string_of_int omit_budget;
    "--policy";
    policy_flag policy;
    "--reduce";
    reduce_flag reduce;
  ]
  @ (match horizon with Some h -> [ "--horizon"; string_of_int h ] | None -> [])
  @ (if binary then [ "--binary" ] else [])
  @ (match table_cap with
    | Some c -> [ "--table-cap"; string_of_int c ]
    | None -> [])
  @ match spill_dir with Some d -> [ "--spill-dir"; d ] | None -> []

(* ------------------------------------------------------------------ *)
(* ipi sweep                                                            *)

let sweep_cmd =
  let jobs_arg =
    Cmdliner.Arg.(
      value & opt int 1
      & info [ "j"; "jobs"; "workers" ] ~docv:"N"
          ~doc:
            "Run the sweep's shards on $(docv) >= 2 supervised worker \
             processes (`ipi sweep-worker`) with heartbeats, per-shard \
             timeouts, bounded retry and work reassignment on worker \
             death; 0 means one per recommended core, and 1 runs every \
             shard in this process, one after another (default). The \
             merged aggregates are bit-identical to --jobs 1 for any \
             worker count.")
  in
  let metrics_arg =
    Cmdliner.Arg.(
      value & flag
      & info [ "metrics" ]
          ~doc:
            "Print the sweep's metrics registry, including the \
             allocation-probe histograms (mc.minor_words_per_round — the \
             checker-core rate, one interval per arena DFS round over the \
             distinct work — and mc.minor_words_per_sweep). Under --jobs \
             N >= 2 the per-round probes stay in the worker processes.")
  in
  let trace_file_arg =
    Cmdliner.Arg.(
      value
      & opt (some string) None
      & info [ "trace" ] ~docv:"FILE"
          ~doc:
            "Write the sweep's profiling spans (sweep > shard > run \
             nesting, with per-span GC deltas) to $(docv). Under --jobs N \
             >= 2 only the sweep span is recorded.")
  in
  let trace_format_arg =
    Cmdliner.Arg.(
      value
      & opt (enum [ ("chrome", `Chrome); ("jsonl", `Jsonl) ]) `Chrome
      & info [ "trace-format" ] ~docv:"FORMAT"
          ~doc:
            "Span-trace format: chrome (trace_event JSON, viewable in \
             Perfetto) or jsonl (one span per line).")
  in
  let budget_arg =
    Cmdliner.Arg.(
      value
      & opt (some float) None
      & info [ "budget" ] ~docv:"SECONDS"
          ~doc:
            "Wall-clock budget for the sweep. On expiry the sweep stops at \
             the next run boundary and reports the partial result \
             (explored runs and everything accounted so far), exiting 3 \
             instead of 0; violations already found still exit 1.")
  in
  let checkpoint_arg =
    Cmdliner.Arg.(
      value
      & opt (some string) None
      & info [ "checkpoint" ] ~docv:"FILE"
          ~doc:
            "Snapshot completed shards to $(docv) (atomic tmp+rename) \
             every --checkpoint-every shards and once more on exit — \
             normal, SIGINT/SIGTERM, or --budget expiry — so an \
             interrupted sweep resumes with --resume $(docv).")
  in
  let checkpoint_every_arg =
    Cmdliner.Arg.(
      value & opt int 8
      & info [ "checkpoint-every" ] ~docv:"N"
          ~doc:"Shards between periodic checkpoint snapshots (default 8).")
  in
  let resume_arg =
    Cmdliner.Arg.(
      value
      & opt (some string) None
      & info [ "resume" ] ~docv:"FILE"
          ~doc:
            "Seed completed shards from a checkpoint written by \
             --checkpoint; only the pending shards are recomputed, and the \
             final aggregates are bit-identical to an undisturbed sweep. \
             The snapshot must describe the same sweep parameters.")
  in
  let chaos_arg =
    Cmdliner.Arg.(
      value
      & opt
          (some
             (enum
                [
                  ("kill", Mc.Supervise.Kill);
                  ("stall", Mc.Supervise.Stall);
                  ("slow", Mc.Supervise.Slow);
                ]))
          None
      & info [ "chaos" ] ~docv:"MODE"
          ~doc:
            "Inject seeded faults into the worker pool of --jobs N >= 2 to \
             exercise the supervisor: kill (SIGKILL a worker mid-shard), \
             stall (SIGSTOP; the chunk timeout must rescue it) or slow \
             (SIGSTOP then SIGCONT). The fault budget is bounded, so a \
             chaos-ridden sweep still completes — bit-identical to an \
             undisturbed one.")
  in
  let chaos_seed_arg =
    Cmdliner.Arg.(
      value & opt int 1
      & info [ "chaos-seed" ] ~docv:"SEED"
          ~doc:"Seed for the --chaos fault injector (default 1).")
  in
  let chunk_timeout_arg =
    Cmdliner.Arg.(
      value & opt float 60.
      & info [ "chunk-timeout" ] ~docv:"SECONDS"
          ~doc:
            "Per-shard deadline under --jobs N >= 2: a worker silent past it \
             is killed and its shard reassigned (default 60).")
  in
  let run label config faults omit_budget jobs binary policy horizon reduce
      budget_s checkpoint checkpoint_every resume_path chaos_mode chaos_seed
      chunk_timeout table_cap spill_dir print_metrics show_progress heartbeat
      trace_file trace_format =
    let refuse msg =
      Format.eprintf "%s@." msg;
      exit 2
    in
    let workers =
      if jobs = 0 then Domain.recommended_domain_count () else jobs
    in
    if chaos_mode <> None && workers <= 1 then
      refuse "--chaos exercises the worker pool: add --jobs N (N >= 2)";
    let n = Config.n config and t = Config.t config in
    let algo = lookup_runnable label ~raise_at:2 config in
    let spec =
      distrib_spec ~algo ~config ~faults ~omit_budget ~policy ~horizon ~binary
        ~reduce ~table_cap ~spill_dir
    in
    let params =
      sweep_params ~label ~n ~t ~faults ~omit_budget ~horizon ~binary ~policy
        ~reduce
    in
    let resume =
      Option.map
        (fun path ->
          match Mc.Checkpoint.load ~path with
          | Ok ck -> ck
          | Error e ->
              refuse (Format.asprintf "%a" Mc.Checkpoint.pp_load_error e))
        resume_path
    in
    let executor =
      if workers > 1 then
        Mc.Distrib.Workers
          {
            workers;
            worker_argv =
              sweep_worker_argv ~label ~n ~t ~faults ~omit_budget ~policy
                ~horizon ~binary ~reduce ~table_cap ~spill_dir;
            chaos =
              Option.map
                (fun mode -> Mc.Supervise.default_chaos mode ~seed:chaos_seed)
                chaos_mode;
            chunk_timeout = Some chunk_timeout;
            max_retries = None;
          }
      else Mc.Distrib.In_process
    in
    let deadline = Option.map (fun b -> Unix.gettimeofday () +. b) budget_s in
    (* SIGINT/SIGTERM request a stop; the driver finishes the shard
       boundary, flushes a final checkpoint, and we exit 3 (PARTIAL)
       below — the same path --budget expiry takes. *)
    let stop = ref false in
    List.iter
      (fun s ->
        try Sys.set_signal s (Sys.Signal_handle (fun _ -> stop := true))
        with Invalid_argument _ | Sys_error _ -> ())
      [ Sys.sigint; Sys.sigterm ];
    let spans =
      match trace_file with
      | Some _ -> Obs.Span.recorder ()
      | None -> Obs.Span.disabled
    in
    (* Two probe granularities: [round_acc] rides inside the tasks (one
       interval per engine round over the distinct work), [sweep_acc]
       brackets the whole driver call. *)
    let registry = Obs.Metrics.create () in
    let probe () = if print_metrics then Some (Obs.Prof.acc ()) else None in
    let round_acc = probe () and sweep_acc = probe () in
    let progress, finish_progress =
      make_progress ~label:"sweep" ~show:show_progress ~heartbeat
    in
    let sweep () =
      Mc.Distrib.run ~executor ?resume
        ?checkpoint:(Option.map (fun p -> (p, checkpoint_every)) checkpoint)
        ~should_stop:(fun () -> !stop)
        ?deadline
        ?metrics:(if print_metrics then Some registry else None)
        ?prof:round_acc ~spans ~progress ~params spec
    in
    let outcome =
      match sweep_acc with None -> sweep () | Some a -> Obs.Prof.measure a sweep
    in
    finish_progress ();
    match outcome with
    | Error msg -> refuse msg
    | Ok r ->
        let result = r.Mc.Distrib.result in
        (match trace_file with
        | Some path ->
            let records = Obs.Span.records spans in
            write_file path (fun oc ->
                match trace_format with
                | `Chrome ->
                    output_string oc (Obs.Chrome.spans_to_string records)
                | `Jsonl ->
                    List.iter
                      (fun r ->
                        output_string oc
                          (Obs.Json.to_string (Obs.Span.record_to_json r));
                        output_char oc '\n')
                      records);
            Format.fprintf std "trace (%d spans) written to %s@."
              (List.length records) path
        | None -> ());
        Format.fprintf std "%a@." Mc.Exhaustive.pp_result result;
        (match r.Mc.Distrib.stats with
        | Some s -> Format.fprintf std "reduction: %a@." Mc.Dedup.pp_stats s
        | None -> ());
        let pp_choices =
          Format.pp_print_list
            ~pp_sep:(fun ppf () -> Format.fprintf ppf " ")
            Mc.Serial.pp_choice
        in
        (match result.Mc.Exhaustive.max_witness with
        | Some choices ->
            Format.fprintf std "worst run: %a@." pp_choices choices
        | None -> ());
        (* The list is in reverse enumeration order. A --binary result does
           not record the proposal assignment, so only a fixed-proposal
           sweep can print a schedule that `ipi run` replays as is. *)
        (match List.rev result.Mc.Exhaustive.violations with
        | [] -> ()
        | (choices, violations) :: _ ->
            Format.fprintf std "first violation: %a@." pp_choices choices;
            List.iter
              (fun v -> Format.fprintf std "  %a@." Sim.Props.pp_violation v)
              violations;
            if not binary then
              Format.fprintf std
                "first violation schedule (replay: ipi run -s @FILE -d):@.%s"
                (Sim.Codec.encode
                   (Mc.Serial.to_schedule
                      ?budget:(Mc.Serial.budget_of ~omit_budget ~faults config)
                      config choices)));
        (match r.Mc.Distrib.sup_metrics with
        | Some m ->
            Format.fprintf std "supervisor: %a@." Mc.Supervise.pp_metrics m
        | None -> ());
        (match checkpoint with
        | Some path ->
            Format.fprintf std "checkpoint (%d/%d shards) written to %s@."
              (List.length r.Mc.Distrib.completed)
              r.Mc.Distrib.total_tasks path
        | None -> ());
        if print_metrics then begin
          (* The per-round histogram lands under [mc]: these are
             checker-core branch rounds (arena DFS steps over the distinct
             work), not plain simulator runs — [ipi run --metrics] keeps
             [sim] for those. *)
          Option.iter
            (fun a -> Obs.Prof.flush a ~metrics:registry ~prefix:"mc" ~per:"round")
            round_acc;
          Option.iter
            (fun a -> Obs.Prof.flush a ~metrics:registry ~prefix:"mc" ~per:"sweep")
            sweep_acc;
          Format.fprintf std "@.metrics:@.%a@." Obs.Metrics.pp registry
        end;
        if result.Mc.Exhaustive.violations <> [] then exit 1;
        if
          result.Mc.Exhaustive.crashed <> []
          || result.Mc.Exhaustive.shard_failures <> []
        then exit 4;
        if r.Mc.Distrib.partial || result.Mc.Exhaustive.expired then exit 3
  in
  Cmdliner.Cmd.v
    (Cmdliner.Cmd.info "sweep"
       ~doc:
         "Exhaustively sweep every serial schedule up to a crash horizon \
          and report worst-case decision rounds and violations; non-zero \
          exit if any run violates consensus or the sweep checked less \
          than it reports."
       ~exits:
         Cmdliner.Cmd.Exit.(
           [
             info 0 ~doc:"the sweep checked every run and found no violation.";
             info 1 ~doc:"some run violates consensus.";
             info 2
               ~doc:
                 "usage error, refused before any run: n and t outside \
                  0 <= t < n, an unknown algorithm, conflicting flags, an \
                  unreadable checkpoint, or an algorithm outside its \
                  resilience regime.";
             info 3
               ~doc:
                 "partial: --budget expired or a signal stopped the sweep \
                  before every run was checked.";
             info 4
               ~doc:
                 "no violation, but some runs crashed (the algorithm \
                  raised) or some shards failed, so those runs were not \
                  checked.";
           ]
           @ List.filter (fun i -> info_code i > 4) defaults))
    Cmdliner.Term.(
      const run $ algo_arg $ config_arg $ faults_arg $ omit_budget_arg
      $ jobs_arg $ binary_arg $ policy_arg $ horizon_arg $ reduce_arg
      $ budget_arg $ checkpoint_arg $ checkpoint_every_arg $ resume_arg
      $ chaos_arg $ chaos_seed_arg $ chunk_timeout_arg
      $ table_cap_arg $ spill_dir_arg $ metrics_arg $ progress_flag_arg
      $ heartbeat_arg $ trace_file_arg $ trace_format_arg)

(* ------------------------------------------------------------------ *)
(* ipi sweep-worker                                                     *)

let sweep_worker_cmd =
  let run label config faults omit_budget binary policy horizon reduce
      table_cap spill_dir =
    let algo = lookup_runnable label ~raise_at:2 config in
    let spec =
      distrib_spec ~algo ~config ~faults ~omit_budget ~policy ~horizon ~binary
        ~reduce ~table_cap ~spill_dir
    in
    try Mc.Distrib.worker_loop spec stdin stdout
    with Failure msg ->
      Format.eprintf "%s@." msg;
      exit 2
  in
  Cmdliner.Cmd.v
    (Cmdliner.Cmd.info "sweep-worker"
       ~doc:
         "One supervised sweep shard executor: read task frames from \
          stdin, run each shard, write result frames to stdout. Spawned \
          by `ipi sweep --jobs N`; not meant for interactive use.")
    Cmdliner.Term.(
      const run $ algo_arg $ config_arg $ faults_arg $ omit_budget_arg
      $ binary_arg $ policy_arg $ horizon_arg $ reduce_arg $ table_cap_arg
      $ spill_dir_arg)

(* ------------------------------------------------------------------ *)
(* ipi heartbeat-check                                                  *)

let heartbeat_check_cmd =
  let file_arg =
    Cmdliner.Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"FILE"
          ~doc:"A heartbeat JSONL written by `--heartbeat $(docv)`.")
  in
  let max_age_arg =
    Cmdliner.Arg.(
      value & opt int 5
      & info [ "max-age-items" ] ~docv:"N"
          ~doc:
            "Staleness budget in work items: the file's age must not \
             exceed the time the writer needs for $(docv) items at its \
             own observed rate (default 5).")
  in
  let run path max_age_items =
    if max_age_items < 1 then begin
      Format.eprintf "--max-age-items must be >= 1@.";
      exit 2
    end;
    let lines =
      String.split_on_char '\n' (read_file path)
      |> List.filter (fun l -> String.trim l <> "")
    in
    let snaps =
      List.mapi
        (fun i line ->
          let parsed =
            match Obs.Json.of_string line with
            | Error _ as e -> e
            | Ok json -> Obs.Progress.snapshot_of_json json
          in
          match parsed with
          | Ok snap -> snap
          | Error e ->
              Format.eprintf "cannot parse %s line %d: %s@." path (i + 1) e;
              exit 2)
        lines
    in
    let mtime =
      match Unix.stat path with
      | st -> st.Unix.st_mtime
      | exception Unix.Unix_error (e, _, _) ->
          Format.eprintf "cannot stat %s: %s@." path (Unix.error_message e);
          exit 2
    in
    match
      Obs.Progress.check_heartbeat
        ~now:(Unix.gettimeofday ())
        ~mtime ~max_age_items snaps
    with
    | Ok () ->
        let last = List.nth snaps (List.length snaps - 1) in
        Format.fprintf std "heartbeat ok: seq %d, %d items%s@."
          last.Obs.Progress.seq last.Obs.Progress.items
          (if last.Obs.Progress.final then " (final)" else "")
    | Error msg ->
        Format.eprintf "%s@." msg;
        exit 1
  in
  Cmdliner.Cmd.v
    (Cmdliner.Cmd.info "heartbeat-check"
       ~doc:
         "Probe a --heartbeat JSONL file for liveness: sequence numbers \
          must strictly increase, and unless the stream is final the file \
          must have been written recently enough for the writer's own \
          observed rate. Exit 1 on a stale or malformed heartbeat.")
    Cmdliner.Term.(const run $ file_arg $ max_age_arg)

(* ------------------------------------------------------------------ *)
(* ipi fuzz / fuzz-worker — the flags that define a campaign            *)

let gen_names =
  [
    ("mix", `Mix);
    ("sync", `Sync);
    ("sync-delays", `Sync_delays);
    ("es", `Es);
    ("mutate", `Mutate);
  ]

(* Everything that fixes a campaign's schedule stream and its runs: the
   parent passes exactly these to its [ipi fuzz-worker] processes. *)
type campaign = {
  label : string;
  config : Config.t;
  faults : Sim.Model.faults;
  omit_budget : int;
  seed : int;
  runs : int;
  gen_name : [ `Mix | `Sync | `Sync_delays | `Es | `Mutate ];
  base : string;
  gst : int;
  raise_at : int;
  fuel : int option;
}

let campaign_term =
  let runs_arg =
    Cmdliner.Arg.(
      value & opt int 200
      & info [ "r"; "runs" ] ~docv:"N" ~doc:"Schedules per campaign.")
  in
  let fuel_arg =
    Cmdliner.Arg.(
      value
      & opt (some int) None
      & info [ "fuel" ] ~docv:"ROUNDS"
          ~doc:
            "Round budget per run (default: the engine bound for each \
             schedule); exhausting it is reported as a budget-exhausted \
             outcome, not an error.")
  in
  let gen_arg =
    Cmdliner.Arg.(
      value & opt (enum gen_names) `Mix
      & info [ "gen" ] ~docv:"GEN"
          ~doc:
            "Schedule generator: mix (default), sync, sync-delays, es, or \
             mutate (perturb the --base schedule).")
  in
  let base_arg =
    Cmdliner.Arg.(
      value & opt string "chain"
      & info [ "base" ] ~docv:"SCHEDULE"
          ~doc:
            "Seed schedule for --gen mutate: any name `ipi run -s` \
             accepts, including $(i,@FILE).")
  in
  let gst_arg =
    Cmdliner.Arg.(
      value & opt int 3
      & info [ "gst" ] ~docv:"GST" ~doc:"gst for --gen es schedules.")
  in
  let raise_at_arg =
    Cmdliner.Arg.(
      value & opt int 2
      & info [ "raise-at" ] ~docv:"ROUND"
          ~doc:"Round from which the `raising` fixture algorithm raises.")
  in
  let make label config faults omit_budget seed runs gen_name base gst
      raise_at fuel =
    {
      label;
      config;
      faults;
      omit_budget;
      seed;
      runs;
      gen_name;
      base;
      gst;
      raise_at;
      fuel;
    }
  in
  Cmdliner.Term.(
    const make $ algo_arg $ config_arg $ faults_arg $ omit_budget_arg
    $ seed_arg $ runs_arg $ gen_arg $ base_arg $ gst_arg $ raise_at_arg
    $ fuel_arg)

let campaign_algo c = lookup_runnable c.label ~raise_at:c.raise_at c.config

let campaign_gen c : Fuzz.Campaign.gen =
  match (c.gen_name, c.faults) with
  (* Mutation campaigns keep their seed schedule whatever the menu — the
     omission operators explore the neighbourhood on their own. *)
  | `Mutate, _ ->
      Fuzz.Campaign.mutation_gen
        ~base:(schedule_of_name c.config ~seed:c.seed ~gst:c.gst c.base)
  | _, (Sim.Model.Send_omit_only | Sim.Model.Recv_omit_only | Sim.Model.Mixed)
    ->
      fun config rng ->
        Workload.Random_runs.with_omissions rng config ~faults:c.faults
          ~omit_budget:c.omit_budget ()
  | `Mix, Sim.Model.Crash_only -> Fuzz.Campaign.default_gen
  | `Sync, Sim.Model.Crash_only ->
      fun config rng -> Workload.Random_runs.synchronous rng config ()
  | `Sync_delays, Sim.Model.Crash_only ->
      fun config rng ->
        Workload.Random_runs.synchronous_with_delays rng config ()
  | `Es, Sim.Model.Crash_only ->
      fun config rng ->
        Workload.Random_runs.eventually_synchronous rng config ~gst:c.gst ()

let fuzz_worker_argv c =
  let int = string_of_int in
  [ Sys.executable_name; "fuzz-worker"; "-a"; c.label ]
  @ [ "-n"; int (Config.n c.config); "-t"; int (Config.t c.config) ]
  @ [ "--faults"; faults_flag c.faults; "--omit-budget"; int c.omit_budget ]
  @ [ "--seed"; int c.seed; "--runs"; int c.runs; "--base"; c.base ]
  @ [ "--gen"; fst (List.find (fun (_, g) -> g = c.gen_name) gen_names) ]
  @ [ "--gst"; int c.gst; "--raise-at"; int c.raise_at ]
  @ match c.fuel with Some f -> [ "--fuel"; int f ] | None -> []

(* ------------------------------------------------------------------ *)
(* ipi fuzz                                                             *)

let fuzz_cmd =
  let jobs_arg =
    Cmdliner.Arg.(
      value & opt int 1
      & info [ "j"; "jobs" ] ~docv:"N"
          ~doc:
            "Run the campaign on $(docv) >= 2 supervised worker processes \
             (`ipi fuzz-worker`); 0 means one per recommended core, and 1 \
             runs every schedule in this process (default). The report is \
             bit-identical across values (unless --budget expires).")
  in
  let budget_arg =
    Cmdliner.Arg.(
      value
      & opt (some float) None
      & info [ "budget" ] ~docv:"SECONDS"
          ~doc:
            "Wall-clock budget; runs not started before it expires are \
             skipped (and reported as such).")
  in
  let shrink_arg =
    Cmdliner.Arg.(
      value & flag
      & info [ "shrink" ]
          ~doc:"Minimize every finding to a 1-minimal schedule.")
  in
  let metrics_arg =
    Cmdliner.Arg.(
      value & flag
      & info [ "metrics" ] ~doc:"Print the campaign's metrics registry.")
  in
  let out_arg =
    Cmdliner.Arg.(
      value
      & opt (some string) None
      & info [ "o"; "out" ] ~docv:"FILE"
          ~doc:
            "Write the report (counterexamples as replayable Codec \
             strings) as JSON to $(docv).")
  in
  let expect_clean_arg =
    Cmdliner.Arg.(
      value & flag
      & info [ "expect-clean" ]
          ~doc:
            "Exit non-zero when the campaign has any finding. Without \
             this flag findings are data, not errors.")
  in
  let run c jobs budget_s shrink print_metrics out expect_clean show_progress
      heartbeat =
    let algo = campaign_algo c in
    let jobs = if jobs = 0 then Domain.recommended_domain_count () else jobs in
    let registry = Obs.Metrics.create () in
    let progress, finish_progress =
      make_progress ~label:"fuzz" ~show:show_progress ~heartbeat
    in
    let run_acc = if print_metrics then Some (Obs.Prof.acc ()) else None in
    let report =
      match
        Fuzz.Campaign.run ~metrics:registry ~jobs
          ~worker_argv:(fuzz_worker_argv c) ?fuel:c.fuel ?budget_s ~shrink
          ?prof:run_acc ~progress ~seed:c.seed ~runs:c.runs ~algo
          ~config:c.config
          ~proposals:(Sim.Runner.distinct_proposals c.config)
          ~gen:(campaign_gen c) ()
      with
      | report -> report
      | exception Failure msg ->
          finish_progress ();
          Format.eprintf "%s@." msg;
          exit 1
    in
    finish_progress ();
    (match run_acc with
    | Some a -> Obs.Prof.flush a ~metrics:registry ~prefix:"fuzz" ~per:"run"
    | None -> ());
    Format.fprintf std "%a@." Fuzz.Campaign.pp_report report;
    List.iter
      (fun f -> Format.fprintf std "@.%a@." Fuzz.Campaign.pp_finding f)
      report.Fuzz.Campaign.findings;
    (match out with
    | Some path ->
        let json =
          Fuzz.Campaign.to_json
            ~meta:
              [
                ("algo", Obs.Json.String c.label);
                ("n", Obs.Json.Int (Config.n c.config));
                ("t", Obs.Json.Int (Config.t c.config));
                ("seed", Obs.Json.Int c.seed);
                ("jobs", Obs.Json.Int jobs);
              ]
            report
        in
        write_file path (fun oc -> output_string oc (Obs.Json.to_string json));
        Format.fprintf std "@.report written to %s@." path
    | None -> ());
    if print_metrics then
      Format.fprintf std "@.metrics:@.%a@." Obs.Metrics.pp registry;
    if expect_clean && report.Fuzz.Campaign.findings <> [] then exit 1
  in
  Cmdliner.Cmd.v
    (Cmdliner.Cmd.info "fuzz"
       ~doc:
         "Run a seed-reproducible randomized campaign: generate schedules, \
          execute each under an online safety monitor with fault \
          containment and a round budget, optionally shrink every finding \
          to a 1-minimal counterexample.")
    Cmdliner.Term.(
      const run $ campaign_term $ jobs_arg $ budget_arg $ shrink_arg
      $ metrics_arg $ out_arg $ expect_clean_arg $ progress_flag_arg
      $ heartbeat_arg)

(* ------------------------------------------------------------------ *)
(* ipi fuzz-worker                                                      *)

let fuzz_worker_cmd =
  let run c =
    let algo = campaign_algo c in
    try
      Fuzz.Campaign.worker_loop ?fuel:c.fuel ~seed:c.seed ~runs:c.runs ~algo
        ~config:c.config
        ~proposals:(Sim.Runner.distinct_proposals c.config)
        ~gen:(campaign_gen c) stdin stdout
    with Failure msg ->
      Format.eprintf "%s@." msg;
      exit 2
  in
  Cmdliner.Cmd.v
    (Cmdliner.Cmd.info "fuzz-worker"
       ~doc:
         "One supervised fuzz task executor: read task frames from stdin, \
          run each task's schedules, write the indices of the failing runs \
          to stdout. Spawned by `ipi fuzz --jobs N`; not meant for \
          interactive use.")
    Cmdliner.Term.(const run $ campaign_term)

(* ------------------------------------------------------------------ *)
(* ipi figure1                                                          *)

let figure1_cmd =
  let run config =
    require_indulgent "the Fig. 1 construction" config;
    let outcome = Mc.Figure1.against_floodset_ws config in
    Format.fprintf std "%a@." Mc.Figure1.pp_outcome outcome;
    Format.fprintf std "@.The five schedules:@.";
    List.iter
      (fun (name, s) ->
        Format.fprintf std "@.--- %s ---@.%s" name (Sim.Codec.encode s))
      [
        ("s1", outcome.Mc.Figure1.s1);
        ("s0", outcome.Mc.Figure1.s0);
        ("a2", outcome.Mc.Figure1.a2);
        ("a1", outcome.Mc.Figure1.a1);
        ("a0", outcome.Mc.Figure1.a0);
      ];
    if not (Mc.Figure1.all_hold outcome) then exit 1
  in
  Cmdliner.Cmd.v
    (Cmdliner.Cmd.info "figure1"
       ~doc:
         "Build and machine-check the five-run lower-bound construction of \
          the paper's Fig. 1 against FloodSetWS.")
    Cmdliner.Term.(const run $ config_arg)

(* ------------------------------------------------------------------ *)
(* ipi bench-diff                                                       *)

let bench_diff_cmd =
  let old_arg =
    Cmdliner.Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"OLD"
          ~doc:
            "Baseline bench artifact — a BENCH_<date>.json or the \
             committed bench/BASELINE.json.")
  in
  let new_arg =
    Cmdliner.Arg.(
      required
      & pos 1 (some string) None
      & info [] ~docv:"NEW" ~doc:"Candidate bench artifact to compare.")
  in
  let threshold_arg =
    Cmdliner.Arg.(
      value & opt float 1.25
      & info [ "threshold" ] ~docv:"RATIO"
          ~doc:
            "Time-regression bar: a matched row regresses when new/old \
             mean exceeds $(docv) and the absolute delta clears the \
             2-sigma noise guard.")
  in
  let alloc_threshold_arg =
    Cmdliner.Arg.(
      value & opt float 1.10
      & info [ "alloc-threshold" ] ~docv:"RATIO"
          ~doc:
            "Allocation-regression bar on the minor-words ratio (rows \
             under 1000 words are never flagged).")
  in
  let warn_only_arg =
    Cmdliner.Arg.(
      value & flag
      & info [ "warn-only" ]
          ~doc:"Print the diff but exit 0 even on regressions.")
  in
  let out_arg =
    Cmdliner.Arg.(
      value
      & opt (some string) None
      & info [ "o"; "out" ] ~docv:"FILE"
          ~doc:"Also write the diff report as JSON to $(docv).")
  in
  let run old_path new_path threshold alloc_threshold warn_only out =
    let artifact path =
      match Stats.Bench_diff.artifact_of_string (read_file path) with
      | Ok a -> a
      | Error e ->
          Format.eprintf "cannot parse %s: %s@." path e;
          exit 2
    in
    let report =
      Stats.Bench_diff.diff ~threshold ~alloc_threshold
        ~old_:(artifact old_path) ~new_:(artifact new_path) ()
    in
    Format.fprintf std "%a@." Stats.Bench_diff.pp report;
    (match out with
    | Some path ->
        write_file path (fun oc ->
            output_string oc
              (Obs.Json.to_string (Stats.Bench_diff.to_json report));
            output_char oc '\n');
        Format.fprintf std "diff report written to %s@." path
    | None -> ());
    if (not warn_only) && Stats.Bench_diff.regressions report <> [] then
      exit 1
  in
  Cmdliner.Cmd.v
    (Cmdliner.Cmd.info "bench-diff"
       ~doc:
         "Diff two bench artifacts row by row (wall-clock and allocation \
          trajectories) and exit non-zero when any matched row regresses \
          past the thresholds.")
    Cmdliner.Term.(
      const run $ old_arg $ new_arg $ threshold_arg $ alloc_threshold_arg
      $ warn_only_arg $ out_arg)

(* ------------------------------------------------------------------ *)
(* ipi verify                                                           *)

let verify_cmd =
  let run () =
    Format.fprintf std "re-checking every headline claim of the paper...@.";
    if not (Expt.Verify.print std (Expt.Verify.run ())) then exit 1
  in
  Cmdliner.Cmd.v
    (Cmdliner.Cmd.info "verify"
       ~doc:
         "Re-run the reproduction certificate: every headline claim, \
          checked against fresh simulations; non-zero exit on any \
          mismatch.")
    Cmdliner.Term.(const run $ const ())

let () =
  let info =
    Cmdliner.Cmd.info "ipi" ~version:"1.0.0"
      ~doc:
        "The inherent price of indulgence (Dutta & Guerraoui, PODC 2002): \
         simulator, algorithms, lower-bound checker and experiments."
  in
  exit
    (Cmdliner.Cmd.eval
       (Cmdliner.Cmd.group info
          [
            list_cmd;
            experiments_cmd;
            run_cmd;
            trace_cmd;
            sweep_cmd;
            sweep_worker_cmd;
            heartbeat_check_cmd;
            fuzz_cmd;
            fuzz_worker_cmd;
            attack_cmd;
            figure1_cmd;
            bench_diff_cmd;
            verify_cmd;
          ]))
