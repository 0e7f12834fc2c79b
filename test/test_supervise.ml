(* The process supervisor under hostility: scripted workers (forked
   closures speaking the real wire protocol) that die, stall or behave on
   cue, and the genuine `ipi sweep-worker` binary driven through a
   checkpoint/interrupt/resume cycle with chaos injection. All scripting
   is deterministic — workers misbehave on instruction, never on a
   timer — so every assertion here is exact, not statistical. *)

open Kernel
open Helpers
module J = Obs.Json

let payload task = J.Obj [ ("task", J.Int task); ("sq", J.Int (task * task)) ]

(* A worker that reads assignment frames and consults [behave] (with its
   own per-process frame count) before answering: [`Reply] echoes the
   task with a recomputable payload, [`Die] exits without answering,
   [`Stall] wedges forever so only a chunk timeout can rescue the task. *)
let scripted_worker ?(behave = fun ~count:_ ~task:_ -> `Reply) () =
  Proc.fork (fun ic oc ->
      let count = ref 0 in
      let rec go () =
        match Obs.Wire.read ic with
        | Error _ -> ()
        | Ok json ->
            if Option.is_some (J.member "shutdown" json) then ()
            else (
              match Option.bind (J.member "task" json) J.to_int_opt with
              | None -> exit 9
              | Some task -> (
                  incr count;
                  match behave ~count:!count ~task with
                  | `Reply ->
                      Obs.Wire.write oc (payload task);
                      go ()
                  | `Die -> exit 7
                  | `Stall ->
                      Unix.sleep 1000;
                      exit 8))
      in
      go ())

let test_supervise_completes_in_order () =
  let tasks = List.init 20 Fun.id in
  let outcome =
    Mc.Supervise.run ~workers:3
      ~spawn:(fun () -> scripted_worker ())
      ~tasks ()
  in
  check_bool "every task completed, in ascending order" true
    (List.map fst outcome.Mc.Supervise.completed = tasks);
  check_bool "payloads ferried back verbatim" true
    (List.for_all
       (fun (t, j) -> Option.bind (J.member "sq" j) J.to_int_opt = Some (t * t))
       outcome.Mc.Supervise.completed);
  check_bool "nothing failed or interrupted" true
    (outcome.Mc.Supervise.failed = [] && outcome.Mc.Supervise.interrupted = []);
  check_int "one frame per task" 20 outcome.Mc.Supervise.metrics.Mc.Supervise.frames;
  check_int "no deaths on a calm run" 0
    outcome.Mc.Supervise.metrics.Mc.Supervise.deaths

(* A pool larger than its queue starts one worker per pending task, not
   one per slot. *)
let test_supervise_spawns_per_task () =
  let outcome =
    Mc.Supervise.run ~workers:4
      ~spawn:(fun () -> scripted_worker ())
      ~tasks:[ 0 ] ()
  in
  check_bool "the task completed" true
    (List.map fst outcome.Mc.Supervise.completed = [ 0 ]);
  check_int "one worker for one task" 1
    outcome.Mc.Supervise.metrics.Mc.Supervise.spawned

let test_supervise_death_and_retry () =
  (* The first spawned worker dies on its first assignment; every
     replacement behaves. The murdered task must be reassigned and the
     sweep must converge with no failures. *)
  let spawns = ref 0 in
  let spawn () =
    incr spawns;
    let doomed = !spawns = 1 in
    scripted_worker
      ~behave:(fun ~count ~task:_ ->
        if doomed && count = 1 then `Die else `Reply)
      ()
  in
  let tasks = List.init 8 Fun.id in
  let outcome =
    Mc.Supervise.run ~workers:2 ~max_retries:3 ~backoff:0.01 ~spawn ~tasks ()
  in
  check_bool "all tasks complete despite the death" true
    (List.map fst outcome.Mc.Supervise.completed = tasks);
  check_bool "no task failed" true (outcome.Mc.Supervise.failed = []);
  let m = outcome.Mc.Supervise.metrics in
  check_bool "the death was seen" true (m.Mc.Supervise.deaths >= 1);
  check_bool "the task was retried" true (m.Mc.Supervise.retries >= 1);
  (* the surviving worker may drain the queue before the backoff respawn
     fires, so only the initial pool size is guaranteed *)
  check_bool "spawn count covers the pool" true (m.Mc.Supervise.spawned >= 2)

let test_supervise_poison_task_bounded_retry () =
  (* Task 5 kills every worker that touches it: after max_retries + 1
     attempts it must land in [failed] — and the rest of the sweep must
     survive it. *)
  let spawn () =
    scripted_worker
      ~behave:(fun ~count:_ ~task -> if task = 5 then `Die else `Reply)
      ()
  in
  let outcome =
    Mc.Supervise.run ~workers:2 ~max_retries:1 ~backoff:0.01 ~spawn
      ~tasks:(List.init 8 Fun.id) ()
  in
  check_bool "the healthy tasks all complete" true
    (List.map fst outcome.Mc.Supervise.completed = [ 0; 1; 2; 3; 4; 6; 7 ]);
  (match outcome.Mc.Supervise.failed with
  | [ (5, _) ] -> ()
  | other ->
      Alcotest.fail
        (Printf.sprintf "expected exactly task 5 to fail, got %d failures"
           (List.length other)));
  check_bool "attempts were bounded" true
    (outcome.Mc.Supervise.metrics.Mc.Supervise.deaths >= 2)

let test_supervise_stall_rescued_by_timeout () =
  (* The first worker wedges on task 2 (SIGSTOP-style, via sleep); the
     chunk timeout must kill it and reassign the task to a replacement. *)
  let spawns = ref 0 in
  let spawn () =
    incr spawns;
    let wedged = !spawns = 1 in
    scripted_worker
      ~behave:(fun ~count:_ ~task ->
        if wedged && task = 2 then `Stall else `Reply)
      ()
  in
  let tasks = List.init 5 Fun.id in
  let outcome =
    Mc.Supervise.run ~workers:1 ~chunk_timeout:0.4 ~max_retries:3 ~backoff:0.01
      ~spawn ~tasks ()
  in
  check_bool "all tasks complete despite the stall" true
    (List.map fst outcome.Mc.Supervise.completed = tasks);
  check_bool "no task failed" true (outcome.Mc.Supervise.failed = []);
  check_bool "the stall was a chunk timeout" true
    (outcome.Mc.Supervise.metrics.Mc.Supervise.timeouts >= 1)

let test_supervise_should_stop_partitions () =
  let finished = ref 0 in
  let outcome =
    Mc.Supervise.run ~workers:2
      ~should_stop:(fun () -> !finished >= 3)
      ~on_result:(fun ~task:_ _ -> incr finished)
      ~spawn:(fun () -> scripted_worker ())
      ~tasks:(List.init 30 Fun.id) ()
  in
  check_bool "stop leaves unfinished work in interrupted" true
    (outcome.Mc.Supervise.interrupted <> []);
  check_bool "completed + interrupted + failed partition the tasks" true
    (List.sort compare
       (List.map fst outcome.Mc.Supervise.completed
       @ outcome.Mc.Supervise.interrupted
       @ List.map fst outcome.Mc.Supervise.failed)
    = List.init 30 Fun.id)

let test_supervise_chaos_converges () =
  (* Seeded chaos murders workers mid-assignment, but with budget <
     retries every task survives at least one undisturbed attempt. *)
  let chaos = Mc.Supervise.default_chaos Mc.Supervise.Kill ~seed:7 in
  let tasks = List.init 16 Fun.id in
  let outcome =
    Mc.Supervise.run ~chaos ~workers:2 ~backoff:0.01
      ~spawn:(fun () -> scripted_worker ())
      ~tasks ()
  in
  check_bool "chaos-ridden run still completes every task" true
    (List.map fst outcome.Mc.Supervise.completed = tasks);
  check_bool "no task failed" true (outcome.Mc.Supervise.failed = []);
  check_bool "injections stayed within budget" true
    (outcome.Mc.Supervise.metrics.Mc.Supervise.chaos_injected
    <= chaos.Mc.Supervise.budget)

(* ------------------------------------------------------------------ *)
(* End to end: the real `ipi sweep-worker` binary                       *)

let result_equal = Mc.Codec.result_equal

let e2e_spec ?(reduce = Mc.Distrib.Rdedup) ?scope config =
  Mc.Distrib.make ~reduce ~algo:Expt.Registry.floodset.Expt.Registry.algo
    config
    (Option.value scope
       ~default:(Mc.Distrib.Fixed (Sim.Runner.distinct_proposals config)))

let e2e_worker_argv ?(reduce = "dedup") ?(binary = false) config =
  [
    ipi_exe;
    "sweep-worker";
    "-a";
    Expt.Registry.floodset.Expt.Registry.label;
    "-n";
    string_of_int (Config.n config);
    "-t";
    string_of_int (Config.t config);
    "--faults";
    "crash";
    "--policy";
    "prefixes";
    "--reduce";
    reduce;
  ]
  @ if binary then [ "--binary" ] else []

let run_ok name = function
  | Ok r -> r
  | Error msg -> Alcotest.fail (name ^ ": " ^ msg)

let test_sweep_worker_end_to_end () =
  let cfg = config ~n:5 ~t:2 in
  let spec = e2e_spec cfg in
  let worker_argv = e2e_worker_argv cfg in
  let params = J.Obj [ ("test", J.String "supervise-e2e") ] in
  let serial = run_ok "serial" (Mc.Distrib.run ~params spec) in
  (* 1. chaos-ridden supervised sweep, straight through *)
  let sup =
    run_ok "supervised"
      (Mc.Distrib.run_supervised ~workers:2
         ~chaos:(Mc.Supervise.default_chaos Mc.Supervise.Kill ~seed:11)
         ~worker_argv ~params spec)
  in
  check_bool "supervised run completes" false sup.Mc.Distrib.partial;
  check_bool "chaos-ridden 2-worker sweep is bit-identical to serial" true
    (result_equal serial.Mc.Distrib.result sup.Mc.Distrib.result);
  check_bool "reduction stats identical across the process boundary" true
    (serial.Mc.Distrib.stats = sup.Mc.Distrib.stats);
  check_int "edge counts identical" serial.Mc.Distrib.edges
    sup.Mc.Distrib.edges;
  check_bool "supervisor metrics are reported" true
    (sup.Mc.Distrib.sup_metrics <> None);
  (* 2. interrupt a serial sweep deterministically, then finish the job
     under supervision, with chaos, from its checkpoint *)
  let path = Filename.temp_file "ipi-test-supervise" ".json" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
  @@ fun () ->
  let polls = ref 0 in
  let part =
    run_ok "interrupted"
      (Mc.Distrib.run ~checkpoint:(path, 1)
         ~should_stop:(fun () ->
           incr polls;
           !polls > 6)
         ~params spec)
  in
  check_bool "interrupted run reports PARTIAL" true part.Mc.Distrib.partial;
  check_int "six tasks persisted before the interrupt" 6
    (List.length part.Mc.Distrib.completed);
  let ck =
    match Mc.Checkpoint.load ~path with
    | Ok ck -> ck
    | Error e ->
        Alcotest.fail (Format.asprintf "%a" Mc.Checkpoint.pp_load_error e)
  in
  let resumed =
    run_ok "resumed"
      (Mc.Distrib.run_supervised ~resume:ck ~workers:2
         ~chaos:(Mc.Supervise.default_chaos Mc.Supervise.Kill ~seed:5)
         ~worker_argv ~params spec)
  in
  check_bool "resumed supervised run completes" false resumed.Mc.Distrib.partial;
  check_bool "interrupt + chaos resume is bit-identical to serial" true
    (result_equal serial.Mc.Distrib.result resumed.Mc.Distrib.result);
  check_bool "stats identical after the full cycle" true
    (serial.Mc.Distrib.stats = resumed.Mc.Distrib.stats)

let test_supervised_immediate_stop () =
  let cfg = config ~n:5 ~t:2 in
  let spec = e2e_spec cfg in
  let params = J.Obj [ ("test", J.String "supervise-stop") ] in
  let stopped =
    run_ok "stopped"
      (Mc.Distrib.run_supervised
         ~should_stop:(fun () -> true)
         ~workers:2 ~worker_argv:(e2e_worker_argv cfg) ~params spec)
  in
  check_bool "immediate stop reports PARTIAL" true stopped.Mc.Distrib.partial;
  check_int "nothing completed" 0 (List.length stopped.Mc.Distrib.completed)

(* The symmetric binary sweep under every executor: orbit tasks run in
   process, on two real worker processes, and through an interrupted,
   checkpointed run finished by a resume — each reproducing the same
   pinned result. *)
let test_sym_sweep_every_executor () =
  let cfg = config ~n:5 ~t:2 in
  let spec =
    e2e_spec ~reduce:Mc.Distrib.Rsym ~scope:Mc.Distrib.Binary cfg
  in
  let params = J.Obj [ ("test", J.String "sym-executors") ] in
  let check_pinned name (r : Mc.Distrib.run) =
    let res = r.Mc.Distrib.result in
    check_bool (name ^ ": complete") false r.Mc.Distrib.partial;
    check_int (name ^ ": orbit tasks") 6 r.Mc.Distrib.total_tasks;
    check_int (name ^ ": runs") 80_032 res.Mc.Exhaustive.runs;
    check_int (name ^ ": explored") 1_597 res.Mc.Exhaustive.distinct_runs;
    match r.Mc.Distrib.stats with
    | Some s ->
        check_int (name ^ ": hits") 7_169 s.Mc.Dedup.hits;
        check_int (name ^ ": lookups") 10_562 (s.Mc.Dedup.hits + s.Mc.Dedup.misses);
        check_int (name ^ ": entries") 3_393 s.Mc.Dedup.entries;
        check_int (name ^ ": snapshots") 1_796 s.Mc.Dedup.snapshots;
        check_int (name ^ ": restores") 8_610 s.Mc.Dedup.restores
    | None -> Alcotest.fail (name ^ ": no stats")
  in
  check_pinned "serial" (run_ok "serial" (Mc.Distrib.run ~params spec));
  check_pinned "workers=2"
    (run_ok "workers=2"
       (Mc.Distrib.run_supervised ~workers:2
          ~worker_argv:(e2e_worker_argv ~reduce:"dedup+sym" ~binary:true cfg)
          ~params spec));
  let path = Filename.temp_file "ipi-test-sym" ".json" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
  @@ fun () ->
  let polls = ref 0 in
  let part =
    run_ok "interrupted"
      (Mc.Distrib.run ~checkpoint:(path, 1)
         ~should_stop:(fun () ->
           incr polls;
           !polls > 2)
         ~params spec)
  in
  check_bool "interrupted run reports PARTIAL" true part.Mc.Distrib.partial;
  match Mc.Checkpoint.load ~path with
  | Error e -> Alcotest.fail (Format.asprintf "%a" Mc.Checkpoint.pp_load_error e)
  | Ok ck ->
      check_int "two orbits persisted" 2 (List.length ck.Mc.Checkpoint.completed);
      check_pinned "resumed"
        (run_ok "resumed" (Mc.Distrib.run ~resume:ck ~params spec))

(* A task that raises outside the engine's containment comes back from a
   worker as a failure frame carrying the same message the in-process
   executor reports, so every executor lists the same shard failure. *)
let test_worker_failure_frame () =
  let cfg = config ~n:3 ~t:1 in
  let spec =
    Mc.Distrib.make ~horizon:2 ~algo:Fuzz.Faulty.raising_init cfg
      (Mc.Distrib.Fixed (Sim.Runner.distinct_proposals cfg))
  in
  let task_in, task_out = Unix.pipe () and reply_in, reply_out = Unix.pipe () in
  let oc = Unix.out_channel_of_descr task_out in
  Obs.Wire.write oc (J.Obj [ ("task", J.Int 0) ]);
  close_out oc;
  let reply_oc = Unix.out_channel_of_descr reply_out in
  Mc.Distrib.worker_loop spec (Unix.in_channel_of_descr task_in) reply_oc;
  close_out reply_oc;
  let frame = Obs.Wire.read (Unix.in_channel_of_descr reply_in) in
  let in_process =
    (run_ok "in process" (Mc.Distrib.run spec)).Mc.Distrib.result
      .Mc.Exhaustive.shard_failures
  in
  match (frame, in_process) with
  | Ok json, f :: _ ->
      check_bool "frame names the task" true
        (Option.bind (J.member "task" json) J.to_int_opt = Some 0);
      check_bool "frame carries the in-process message" true
        (Option.bind (J.member "failure" json) J.to_string_opt
        = Some f.Mc.Exhaustive.message)
  | Error _, _ -> Alcotest.fail "no reply frame"
  | Ok _, [] -> Alcotest.fail "in-process run reported no failure"

(* ------------------------------------------------------------------ *)
(* `ipi sweep` honours or refuses every flag combination               *)

(* Run [ipi ARGS] in a fresh temporary directory, an argument ["@name"]
   naming a file there. Returns stdout, stderr, the exit code and every
   file the run left behind, with its contents. *)
let ipi args =
  let dir = Filename.temp_file "ipi-test-cli" ".dir" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  let arg a =
    if String.starts_with ~prefix:"@" a then
      Filename.concat dir (String.sub a 1 (String.length a - 1))
    else a
  in
  let argv = Array.of_list (ipi_exe :: List.map arg args) in
  let ((out, inp, err) as chans) =
    Unix.open_process_args_full ipi_exe argv (Unix.environment ())
  in
  close_out inp;
  let stdout = In_channel.input_all out in
  let stderr = In_channel.input_all err in
  let code =
    match Unix.close_process_full chans with Unix.WEXITED c -> c | _ -> -1
  in
  let files =
    List.map
      (fun f ->
        let path = Filename.concat dir f in
        let contents = In_channel.with_open_bin path In_channel.input_all in
        Sys.remove path;
        (f, contents))
      (List.sort compare (Array.to_list (Sys.readdir dir)))
  in
  Unix.rmdir dir;
  (stdout, stderr, code, files)

let ipi_sweep args = ipi ("sweep" :: args)

let small = [ "-a"; "FloodSet"; "-n"; "4"; "-t"; "1"; "--binary"; "--reduce"; "dedup" ]

(* The result block alone: what stays the same across executors. *)
let result_block stdout =
  let rec upto_metrics = function
    | [] | "metrics:" :: _ -> []
    | l :: ls -> l :: upto_metrics ls
  in
  upto_metrics (String.split_on_char '\n' stdout)
  |> List.filter (fun l ->
         l <> ""
         && not
              (List.exists
                 (fun prefix -> String.starts_with ~prefix l)
                 [ "supervisor:"; "checkpoint"; "trace (" ]))

let metric stdout name =
  List.find_map
    (fun l ->
      match String.split_on_char ' ' l |> List.filter (( <> ) "") with
      | [ k; v ] when k = name -> Some v
      | _ -> None)
    (String.split_on_char '\n' stdout)

(* [workers] is the [mc.workers] gauge a row must print: none in process;
   a pool prints its [supervisor:] line too. *)
let test_metrics_under_every_executor () =
  let plain, _, _, _ = ipi_sweep small in
  List.iter
    (fun (name, extra, workers) ->
      let out, _, code, _ = ipi_sweep (small @ extra @ [ "--metrics" ]) in
      check_int (name ^ ": exit 0") 0 code;
      check_bool (name ^ ": metrics block printed") true (contains out "\nmetrics:\n");
      check_bool (name ^ ": mc.runs counted") true
        (metric out "mc.runs" <> None);
      check_bool (name ^ ": executor gauge") true
        (metric out "mc.workers" = workers);
      check_bool (name ^ ": supervisor line") (workers <> None)
        (contains out "\nsupervisor: ");
      check_bool (name ^ ": same result block") true
        (result_block out = result_block plain))
    [
      ("checkpoint", [ "--checkpoint"; "@x.ckpt" ], None);
      ( "jobs 2 + checkpoint",
        [ "--jobs"; "2"; "--checkpoint"; "@x.ckpt" ],
        Some "2" );
      ("jobs 2 + table cap", [ "--jobs"; "2"; "--table-cap"; "50" ], Some "2");
      ("workers", [ "--workers"; "2" ], Some "2");
    ]

(* One task on a pool of four: the supervisor starts one worker. *)
let test_pool_larger_than_tasks () =
  let out, _, code, _ =
    ipi_sweep
      [ "-a"; "FloodSet"; "-n"; "3"; "-t"; "1"; "--horizon"; "0"; "--jobs"; "4" ]
  in
  check_int "exit 0" 0 code;
  check_bool "supervisor: 1 spawned" true
    (contains out "\nsupervisor: 1 spawned, ")

let test_trace_under_every_executor () =
  List.iter
    (fun (name, extra) ->
      let out, _, code, files =
        ipi_sweep (small @ extra @ [ "--trace"; "@t.json" ])
      in
      check_int (name ^ ": exit 0") 0 code;
      check_bool (name ^ ": trace line printed") true (contains out "trace (");
      match List.assoc_opt "t.json" files with
      | None -> Alcotest.fail (name ^ ": no trace file written")
      | Some body -> (
          match Obs.Json.of_string body with
          | Error msg -> Alcotest.fail (name ^ ": " ^ msg)
          | Ok json ->
              check_bool (name ^ ": trace events present") true
                (match
                   Option.bind (J.member "traceEvents" json) J.to_list_opt
                 with
                | Some (_ :: _) -> true
                | _ -> false)))
    [
      ("in process", []);
      ("checkpoint", [ "--checkpoint"; "@y.ckpt" ]);
      ("jobs 2", [ "--jobs"; "2" ]);
      ("workers", [ "--workers"; "2" ]);
    ]

(* --jobs and --workers name one option, so passing both repeats it: a
   command-line error (exit 124). --chaos without a pool is refused in one
   line (exit 2). *)
let test_conflicting_flags_refused () =
  List.iter
    (fun (name, extra) ->
      let out, err, code, _ = ipi_sweep (small @ extra) in
      check_int (name ^ ": command-line error") 124 code;
      check_string (name ^ ": no result") "" out;
      check_bool (name ^ ": names the option") true (contains err "--workers"))
    [
      ("jobs + workers", [ "--jobs"; "2"; "--workers"; "2" ]);
      ("jobs 0 + workers", [ "--jobs"; "0"; "--workers"; "2" ]);
    ];
  List.iter
    (fun (name, extra) ->
      let out, err, code, _ = ipi_sweep (small @ extra) in
      check_int (name ^ ": exit 2") 2 code;
      check_string (name ^ ": no result") "" out;
      check_int (name ^ ": one-line message") 1
        (List.length (List.filter (( <> ) "") (String.split_on_char '\n' err))))
    [
      ("chaos without workers", [ "--chaos"; "kill" ]);
      ("chaos on one job", [ "--jobs"; "1"; "--chaos"; "kill" ]);
    ]

(* A negative omission budget is a usage error: the parser refuses it
   before any shard runs, instead of every shard failing on the budget. *)
let test_negative_omit_budget_refused () =
  let out, err, code, _ =
    ipi_sweep (small @ [ "--faults"; "mixed"; "--omit-budget=-1" ])
  in
  check_int "usage error" 124 code;
  check_string "no result" "" out;
  check_bool "names the option" true (contains err "--omit-budget")

(* A sweep that checked less than it reports does not exit 0: crashed runs
   ([raising] raises from on_receive) and failed shards ([raising-init]
   raises from init) exit 4 under either executor, and say why. *)
let test_unchecked_runs_exit_4 () =
  List.iter
    (fun (fixture, executor, evidence) ->
      let name = fixture ^ " " ^ String.concat " " executor in
      let out, _, code, _ =
        ipi_sweep ([ "-a"; fixture; "-n"; "4"; "-t"; "1" ] @ executor)
      in
      check_int (name ^ ": exit 4") 4 code;
      check_bool (name ^ ": no violation") true
        (contains out "0 violation(s)");
      check_bool (name ^ ": says why") true (contains out evidence))
    [
      ("raising", [], "crashed run(s)");
      ("raising", [ "--workers"; "2" ], "crashed run(s)");
      ("raising-init", [], "failed");
      ("raising-init", [ "--workers"; "2" ], "failed");
    ]

(* The other outcomes: clean 0, violation 1 (FloodSet under
   send-omissions), partial 3 (a zero wall-clock budget). *)
let test_exit_codes () =
  List.iter
    (fun (name, args, expected) ->
      let _, _, code, _ = ipi_sweep args in
      check_int name expected code)
    [
      ("clean", small, 0);
      ( "violation",
        [ "-a"; "FloodSet"; "-n"; "4"; "-t"; "1"; "--faults"; "send-omit" ],
        1 );
      ("partial", small @ [ "--budget"; "0" ], 3);
    ]

(* An (algorithm, n, t) the registry rejects is refused before any run:
   exit 2, no result, one stderr line naming the entry and its regime. *)
let test_inapplicable_refused () =
  let out, err, code, _ =
    ipi_sweep [ "-a"; "AMR-leader"; "-n"; "5"; "-t"; "2" ]
  in
  check_int "usage error" 2 code;
  check_string "no result" "" out;
  check_string "names the entry and its regime"
    "AMR-leader requires t < n/3; got n=5, t=2\n" err

(* A size no system has, or one outside the regime a construction needs,
   is a usage error in every command that takes -n/-t: exit 2, no output,
   one stderr line naming n and t. *)
let test_bad_size_refused () =
  let no_system n t =
    Printf.sprintf "a system needs 0 <= t < n; got n=%d, t=%d\n" n t
  in
  List.iter
    (fun (args, expected) ->
      let name = String.concat " " args in
      let out, err, code, _ = ipi args in
      check_int (name ^ ": usage error") 2 code;
      check_string (name ^ ": no output") "" out;
      check_string (name ^ ": one line naming n and t") expected err)
    [
      ([ "sweep"; "-a"; "FloodSet"; "-n"; "3"; "-t"; "3" ], no_system 3 3);
      ([ "run"; "-n"; "0"; "-t"; "0" ], no_system 0 0);
      ([ "fuzz"; "-n"; "2"; "-t"; "2" ], no_system 2 2);
      ([ "attack"; "-n"; "3"; "-t"; "5" ], no_system 3 5);
      ([ "figure1"; "-n"; "3"; "-t"; "3" ], no_system 3 3);
      ( [ "sweep-worker"; "-a"; "FloodSet"; "-n"; "3"; "-t"; "3" ],
        no_system 3 3 );
      ( [ "figure1"; "-n"; "4"; "-t"; "2" ],
        "the Fig. 1 construction requires 0 < t < n/2; got n=4, t=2\n" );
      ( [ "attack"; "-a"; "FloodSet"; "-n"; "2"; "-t"; "1" ],
        "the lower-bound attack requires 0 < t < n/2; got n=2, t=1\n" );
    ]

let () =
  Alcotest.run "supervise"
    [
      ( "scripted workers",
        [
          Alcotest.test_case "completes in order" `Quick
            test_supervise_completes_in_order;
          Alcotest.test_case "one worker per pending task" `Quick
            test_supervise_spawns_per_task;
          Alcotest.test_case "death and retry" `Quick
            test_supervise_death_and_retry;
          Alcotest.test_case "poison task bounded retry" `Quick
            test_supervise_poison_task_bounded_retry;
          Alcotest.test_case "stall rescued by timeout" `Quick
            test_supervise_stall_rescued_by_timeout;
          Alcotest.test_case "should_stop partitions tasks" `Quick
            test_supervise_should_stop_partitions;
          Alcotest.test_case "chaos converges" `Quick
            test_supervise_chaos_converges;
        ] );
      ( "sweep-worker binary",
        [
          Alcotest.test_case "chaos / interrupt / resume cycle" `Quick
            test_sweep_worker_end_to_end;
          Alcotest.test_case "immediate stop" `Quick
            test_supervised_immediate_stop;
          Alcotest.test_case "dedup+sym under every executor" `Quick
            test_sym_sweep_every_executor;
          Alcotest.test_case "raising task answers a failure frame" `Quick
            test_worker_failure_frame;
        ] );
      ( "sweep flags",
        [
          Alcotest.test_case "metrics under every executor" `Quick
            test_metrics_under_every_executor;
          Alcotest.test_case "pool larger than its tasks" `Quick
            test_pool_larger_than_tasks;
          Alcotest.test_case "trace under every executor" `Quick
            test_trace_under_every_executor;
          Alcotest.test_case "conflicting flags refused" `Quick
            test_conflicting_flags_refused;
          Alcotest.test_case "negative omission budget refused" `Quick
            test_negative_omit_budget_refused;
          Alcotest.test_case "clean, violating and partial exits" `Quick
            test_exit_codes;
          Alcotest.test_case "unchecked runs exit 4" `Quick
            test_unchecked_runs_exit_4;
          Alcotest.test_case "inapplicable algorithm refused" `Quick
            test_inapplicable_refused;
          Alcotest.test_case "bad n/t refused by every command" `Quick
            test_bad_size_refused;
        ] );
    ]
