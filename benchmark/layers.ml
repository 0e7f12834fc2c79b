(* The traced part of the benchmark: one workload run through the
   library, with a timer around every call into a layer's public
   functions.

   Usage: layers.exe WORKLOAD SEED TMPDIR IPI

   Prints one JSON object: the per-layer metrics that apply to the
   workload, [traced_wall_s] (the part of this run that redoes the
   workload's own work, for the tracing overhead), [accounted_s] (the
   layer times that, with set-up, should add up to the untraced wall time)
   and [untraced_wall_s] (the median wall time of the workload's own `ipi`
   command, run between the traced passes so that machine drift moves both
   sides of the ledger alike).

   A helper mode serves the sweeps: [layers.exe tasks WORKLOAD K PROCS]
   times a share of the tasks in a fresh process.

   Only APIs the sweep-driver and executor refactors keep are called:
   [Sim.Engine.Make(A).Arena], [Mc.Menu], [Mc.Serial], [Mc.Distrib]'s
   spec/run_task/merge_entries/run_supervised, [Mc.Checkpoint],
   [Mc.Codec], [Obs.Wire], [Fuzz.Campaign] and [Fuzz.Harness]. *)

open Kernel
open Ipibench
module J = Obs.Json

let now = Rusage.now

let time f =
  let t0 = now () in
  let x = f () in
  (x, now () -. t0)

(* Median over [reps] timings of [f]. *)
let median_time reps f =
  Quantile.median (List.init reps (fun _ -> snd (time f)))

let failures = ref []
let fail fmt = Format.kasprintf (fun s -> failures := s :: !failures) fmt

let faults_of = function
  | "crash" -> Sim.Model.Crash_only
  | "send-omit" -> Sim.Model.Send_omit_only
  | "recv-omit" -> Sim.Model.Recv_omit_only
  | "mixed" -> Sim.Model.Mixed
  | s -> invalid_arg ("unknown fault menu " ^ s)

let algo_of label =
  match Expt.Registry.find label with
  | Some e -> e.Expt.Registry.algo
  | None -> invalid_arg ("unknown algorithm " ^ label)

(* Walks sample every [stride]-th task and stop after [leaf_cap] leaves
   per task, so their cost stays bounded on large trees. The workload's
   own work is traced [passes] times and reported as medians. *)
let stride = 16
let leaf_cap = 20_000
let walk_reps = 5
let passes = 3

(* One untraced run of the workload's `ipi` command: its wall time. *)
let untraced (w : Spec.workload) ~ipi ~seed ~tmp () =
  let file = Filename.concat tmp in
  let argv =
    Spec.argv ~ipi ~seed ~checkpoint:(file "untraced.ckpt") ~setup:false w
  in
  let p =
    Rusage.run ~argv:(Array.of_list argv) ~stdout:(file "untraced.out")
      ~stderr:(file "untraced.err") ()
  in
  if p.status <> Rusage.Exited 0 then
    fail "%s: untraced run: %a" w.name Rusage.pp_status p.status;
  p.wall_s

(* [n] results of [f], with an untraced run before the first and after
   each: the results and the untraced median. *)
let interleaved n ~untraced f =
  let walls = ref [ untraced () ] in
  let xs =
    List.init n (fun _ ->
        let x = f () in
        walls := untraced () :: !walls;
        x)
  in
  (xs, Quantile.median !walls)

(* ------------------------------------------------------------------ *)
(* Calibration walks                                                    *)

type walk = Menu_only | Steps | Probe | Finish
type counts = { mutable edges : int; mutable leaves : int; mutable nodes : int }

exception Cap

(* Block-timed depth-first walks over the serial adversary's tree:
   [Menu_only] calls only [Menu.root]/[Menu.child]; [Steps] adds
   [Arena.step] and the save/restore/drop branch discipline of the
   checker's DFS; [Probe] and [Finish] each add one call to [Steps]:
   [Arena.probe_fingerprint] at every node, as the dedup table's lookups
   do, or [Arena.finish] at every leaf. A walk's extra time over the walk
   it extends, divided by the exact call count, is that layer's cost per
   call. *)
let walk_costs (spec : Mc.Distrib.spec) ~horizon ~assignments ~sample =
  let (Sim.Algorithm.Packed (module A)) = spec.algo in
  let module E = Sim.Engine.Make (A) in
  let config = spec.config in
  let max_rounds = Sim.Engine.round_bound config ~horizon ~gst:1 in
  let run kind c task =
    let menu =
      Mc.Menu.create ~faults:spec.faults ?omit_budget:spec.omit_budget
        ~policy:spec.policy config
    in
    let arena = E.Arena.create config ~proposals:assignments.(task) in
    let arena_on = kind <> Menu_only in
    let leaves0 = c.leaves in
    let rec go depth (node : Mc.Menu.node) =
      if kind = Probe then
        ignore (E.Arena.probe_fingerprint arena : E.Arena.fingerprint);
      c.nodes <- c.nodes + 1;
      if depth = 0 then begin
        c.leaves <- c.leaves + 1;
        (if kind = Finish then
           try
             ignore
               (E.Arena.finish ~max_rounds ~schedule:node.leaf_schedule arena
                 : Sim.Trace.t)
           with Sim.Engine.Step_error _ -> ());
        if c.leaves - leaves0 >= leaf_cap then raise Cap
      end
      else begin
        if arena_on then E.Arena.save arena;
        for i = 0 to Array.length node.choices - 1 do
          if arena_on && i > 0 then E.Arena.restore arena;
          c.edges <- c.edges + 1;
          match if arena_on then E.Arena.step arena node.plans.(i) with
          | () -> go (depth - 1) (Mc.Menu.child menu node i)
          | exception Sim.Engine.Step_error _ -> ()
        done;
        if arena_on then E.Arena.drop arena
      end
    in
    try go horizon (Mc.Menu.root menu) with Cap -> ()
  in
  let block kind =
    let c = { edges = 0; leaves = 0; nodes = 0 } in
    let (), dt = time (fun () -> List.iter (run kind c) sample) in
    (c, dt)
  in
  let kinds = [ Menu_only; Steps; Probe; Finish ] in
  let rounds = List.init walk_reps (fun _ -> List.map block kinds) in
  let med i = Quantile.median (List.map (fun r -> snd (List.nth r i)) rounds) in
  let c = fst (List.hd (List.hd rounds)) in
  let per n dt = if n = 0 then 0. else dt *. 1e9 /. float_of_int n in
  let menu_ns = per c.edges (med 0) in
  let arena_ns = per c.edges (med 1 -. med 0) in
  let probe_ns = per c.nodes (med 2 -. med 1) in
  let finish_ns = per c.leaves (med 3 -. med 1) in
  (menu_ns, arena_ns, finish_ns, probe_ns)

(* An unreduced task explores the whole menu tree below its root, so its
   snapshot and restore counts are the tree's expanded nodes and later
   siblings; [Mc.Distrib] reports them only for dedup tasks. *)
let tree_shape (spec : Mc.Distrib.spec) ~horizon =
  let menu =
    Mc.Menu.create ~faults:spec.faults ?omit_budget:spec.omit_budget
      ~policy:spec.policy spec.config
  in
  let edges = ref 0 and expanded = ref 0 and restores = ref 0 in
  let rec go depth (node : Mc.Menu.node) =
    if depth > 0 then begin
      let k = Array.length node.choices in
      incr expanded;
      restores := !restores + k - 1;
      edges := !edges + k;
      for i = 0 to k - 1 do
        go (depth - 1) (Mc.Menu.child menu node i)
      done
    end
  in
  go horizon (Mc.Menu.root menu);
  (!edges, !expanded, !restores)

(* ------------------------------------------------------------------ *)
(* Sweeps                                                               *)

let binary_assignments config =
  Listx.subsets (Pid.all ~n:(Config.n config))
  |> List.map (fun ones ->
         Sim.Runner.binary_proposals config ~ones:(Pid.Set.of_list ones))
  |> Array.of_list

(* The spec [ipi sweep] builds from [Spec.sweep_flags]: ipi's default
   omission budget, policy and horizon. *)
let spec_of (s : Spec.sweep) =
  {
    Mc.Distrib.faults = faults_of s.faults;
    omit_budget = Some 1;
    policy = Mc.Serial.Prefixes;
    horizon = None;
    algo = algo_of s.algo;
    config = Config.make ~n:s.n ~t:s.t;
    reduce = (if s.dedup then Mc.Distrib.Rdedup else Mc.Distrib.Rnone);
    scope = Mc.Distrib.Binary;
    table_cap = None;
    spill_dir = None;
  }

(* The task-process side of [run_tasks]: run and time the tasks [i] with
   [i mod procs = k], one frame per task on stdout. *)
let serve_tasks (s : Spec.sweep) ~k ~procs =
  let spec = spec_of s in
  for i = 0 to Mc.Distrib.total_tasks spec - 1 do
    if i mod procs = k then begin
      let w0 = Gc.minor_words () in
      let e, dt = time (fun () -> Mc.Distrib.run_task spec i) in
      Obs.Wire.write stdout
        (J.Obj
           [
             ("entry", Mc.Checkpoint.entry_to_json e);
             ("dt", J.Float dt);
             ("words", J.Float (Gc.minor_words () -. w0));
           ])
    end
  done

(* Every task, timed one by one, in conditions like the untraced
   process's: in fresh processes, whose heaps start as small as a new
   `ipi`'s, and for a pool of [procs] workers split over that many
   processes running at once, since tasks run slower beside each other on
   the same cores than alone. Returns (entry, seconds, minor words) per
   task, in task order. *)
let run_tasks (w : Spec.workload) ~procs =
  let spawn k =
    Unix.open_process_args_in Sys.executable_name
      [| Sys.executable_name; "tasks"; w.name; string_of_int k; string_of_int procs |]
  in
  let collect ic =
    let rec go acc =
      match Obs.Wire.read ic with
      | Error Obs.Wire.Eof -> acc
      | Error e -> failwith (Format.asprintf "task process: %a" Obs.Wire.pp_error e)
      | Ok j -> (
          let num k = Option.bind (J.member k j) J.to_float_opt in
          match
            ( Option.map Mc.Checkpoint.entry_of_json (J.member "entry" j),
              num "dt",
              num "words" )
          with
          | Some (Ok e), Some dt, Some words -> go ((e, dt, words) :: acc)
          | _ -> failwith "task process: malformed frame")
    in
    let results = go [] in
    match Unix.close_process_in ic with
    | Unix.WEXITED 0 -> results
    | _ -> failwith "task process failed"
  in
  let children = List.init procs spawn in
  List.sort
    (fun ((a : Mc.Checkpoint.entry), _, _) (b, _, _) -> compare a.task b.task)
    (List.concat_map collect children)

let sweep ~(w : Spec.workload) (s : Spec.sweep) ~ipi ~tmp ~untraced =
  let spec = spec_of s in
  let config = spec.config in
  let horizon = s.t + 2 in
  let total = Mc.Distrib.total_tasks spec in
  let pass () =
    time (fun () -> Array.of_list (run_tasks w ~procs:(max 1 s.workers)))
  in
  (* A pooled sweep's ledger rests on the pool runs below, which are what
     get the untraced runs beside them. *)
  let loops, loops_untraced =
    if s.workers = 0 then interleaved passes ~untraced pass
    else (List.init passes (fun _ -> pass ()), Float.nan)
  in
  let timed = fst (List.hd loops) in
  let loop_s = Quantile.median (List.map snd loops) in
  let entries = Array.to_list (Array.map (fun (e, _, _) -> e) timed) in
  let busy =
    Array.init total (fun i ->
        Quantile.median
          (List.map
             (fun (l, _) ->
               let _, dt, _ = l.(i) in
               dt)
             loops))
  in
  let words = Array.fold_left (fun a (_, _, w) -> a +. w) 0. timed in
  let (result, stats, edges), merge_s =
    time (fun () -> Mc.Distrib.merge_entries spec entries)
  in
  if result.Mc.Exhaustive.runs <> s.runs then
    fail "%s: merged %d runs, expected %d" w.name result.runs s.runs;
  if (result.min_decision, result.max_decision) <> s.rounds then
    fail "%s: rounds differ from the pinned range" w.name;
  let busy_s = Array.fold_left ( +. ) 0. busy in
  let finishes = result.distinct_runs in
  let hits, misses, entries_n, probes, snapshots, restores =
    match stats with
    | Some st ->
        ( st.Mc.Dedup.hits,
          st.misses,
          st.entries,
          st.hits + st.misses,
          st.snapshots,
          st.restores )
    | None ->
        let tree_edges, expanded, restores = tree_shape spec ~horizon in
        if tree_edges * total <> edges then
          fail "%s: menu tree has %d edges, tasks stepped %d" w.name
            (tree_edges * total) edges;
        (0, 0, 0, 0, expanded * total, restores * total)
  in
  let assignments = binary_assignments config in
  let sample = List.filter (fun i -> i mod stride = 0) (List.init total Fun.id) in
  let menu_ns, arena_ns, finish_ns, probe_ns =
    walk_costs spec ~horizon ~assignments ~sample
  in
  let fe = float_of_int in
  let menu_s = menu_ns *. fe edges *. 1e-9 in
  let arena_s = ((arena_ns *. fe edges) +. (finish_ns *. fe finishes)) *. 1e-9 in
  let probe_s = probe_ns *. fe probes *. 1e-9 in
  let common =
    [
      ("mc.task.count", fe total);
      ("mc.task.busy_s", busy_s);
      ("mc.task.max_s", Array.fold_left max 0. busy);
      ("mc.task.minor_words_per_edge", words /. fe (max 1 edges));
      ("mc.merge_s", merge_s);
      ("mc.runs", fe result.runs);
      ("mc.explored", fe result.distinct_runs);
      ("mc.explored_ratio", fe result.distinct_runs /. fe result.runs);
      ("mc.menu.edges", fe edges);
      ("mc.menu.ns_per_edge", menu_ns);
      ("sim.arena.steps", fe edges);
      ("sim.arena.snapshots", fe snapshots);
      ("sim.arena.restores", fe restores);
      ("sim.arena.finishes", fe finishes);
      ("sim.arena.ns_per_edge", arena_ns);
      ("sim.arena.ns_per_finish", finish_ns);
      ("sim.fingerprint.probes", fe probes);
      ("sim.fingerprint.ns_per_probe", probe_ns);
      ("mc.dedup.hits", fe hits);
      ("mc.dedup.misses", fe misses);
      ("mc.dedup.entries", fe entries_n);
      ( "mc.dedup.hit_ratio",
        if hits + misses = 0 then 0. else fe hits /. fe (hits + misses) );
      ("mc.dedup.self_s", busy_s -. menu_s -. arena_s -. probe_s);
    ]
  in
  if s.workers = 0 then
    (common, loop_s +. merge_s, busy_s +. merge_s, loops_untraced)
  else begin
    (* What the supervised process adds around the same tasks: the frames
       each task crosses the pipe in, the entry codec on both ends, and a
       checkpoint after every completed task. *)
    let encode e = J.to_string (Mc.Checkpoint.entry_to_json e) in
    let decode str =
      match J.of_string str with
      | Error m -> Error m
      | Ok j -> Mc.Checkpoint.entry_of_json j
    in
    let encoded = List.map encode entries in
    List.iter2
      (fun (e : Mc.Checkpoint.entry) str ->
        match decode str with
        | Ok d when Mc.Codec.result_equal d.result e.result -> ()
        | _ -> fail "%s: task %d does not round-trip the codec" w.name e.task)
      entries encoded;
    let bytes = List.fold_left (fun a s -> a + String.length s) 0 encoded in
    let encode_s = median_time 9 (fun () -> List.iter (fun e -> ignore (encode e)) entries) in
    let decode_s = median_time 9 (fun () -> List.iter (fun s -> ignore (decode s)) encoded) in
    let wire_path = Filename.concat tmp "frames" in
    let wire_s =
      median_time 5 (fun () ->
          Out_channel.with_open_bin wire_path (fun oc ->
              List.iter
                (fun (e : Mc.Checkpoint.entry) ->
                  Obs.Wire.write oc (J.Obj [ ("task", J.Int e.task) ]);
                  Obs.Wire.write oc (Mc.Distrib.entry_to_frame e))
                entries);
          In_channel.with_open_bin wire_path (fun ic ->
              for _ = 1 to 2 * total do
                match Obs.Wire.read ic with
                | Ok _ -> ()
                | Error e -> fail "%s: wire %a" w.name Obs.Wire.pp_error e
              done))
    in
    let params = J.Obj [ ("benchmark", J.String w.name) ] in
    let commit = Mc.Checkpoint.current_commit () in
    let ck_path = Filename.concat tmp "saves.ckpt" in
    let written = ref 0 and save_s = ref 0. in
    for k = 1 to total do
      let completed = List.filteri (fun i _ -> i < k) entries in
      let (), dt =
        time (fun () ->
            Mc.Checkpoint.save ~path:ck_path
              { commit; params; total_tasks = total; completed })
      in
      save_s := !save_s +. dt;
      written := !written + (Unix.stat ck_path).st_size
    done;
    let loaded, load_s = time (fun () -> Mc.Checkpoint.load ~path:ck_path) in
    (match loaded with
    | Ok ck when List.length ck.completed = total -> ()
    | _ -> fail "%s: the saved checkpoint does not load %d tasks" w.name total);
    (* The pool itself: [run_supervised] driving real [ipi sweep-worker]
       processes, with a checkpoint after every task, as the untraced
       command drives them. *)
    let pools, untraced_s =
      interleaved passes ~untraced (fun () ->
          time (fun () ->
              Mc.Distrib.run_supervised
                ~checkpoint:(Filename.concat tmp "supervised.ckpt", 1)
                ~workers:s.workers
                ~worker_argv:(ipi :: "sweep-worker" :: Spec.sweep_flags s)
                ~params spec))
    in
    let sup_s = Quantile.median (List.map snd pools) in
    let sup =
      match fst (List.hd pools) with
      | Ok r when r.result.runs = s.runs && not r.partial -> r.sup_metrics
      | Ok _ -> fail "%s: supervised run incomplete" w.name; None
      | Error m -> fail "%s: supervised run: %s" w.name m; None
    in
    let sm f = match sup with Some m -> fe (f m) | None -> 0. in
    ( common
      @ [
          ("mc.codec.bytes_per_entry", fe bytes /. fe total);
          ("mc.codec.encode_s", encode_s);
          ("mc.codec.decode_s", decode_s);
          ("mc.checkpoint.saves", fe total);
          ("mc.checkpoint.bytes_written", fe !written);
          ("mc.checkpoint.save_s", !save_s);
          ("mc.checkpoint.load_s", load_s);
          ("obs.wire.frames", fe (2 * total));
          ("obs.wire.roundtrip_s", wire_s);
          ("mc.supervise.wall_s", sup_s);
          ("mc.supervise.spawned", sm (fun m -> m.Mc.Supervise.spawned));
          ("mc.supervise.retries", sm (fun m -> m.Mc.Supervise.retries));
          ("mc.supervise.deaths", sm (fun m -> m.Mc.Supervise.deaths));
          ( "mc.supervise.idle_share",
            1. -. (busy_s /. (fe s.workers *. sup_s)) );
        ],
      sup_s,
      sup_s,
      untraced_s )
  end

(* ------------------------------------------------------------------ *)
(* Fuzz campaign                                                        *)

let live_mb () =
  Gc.full_major ();
  float_of_int ((Gc.stat ()).live_words * (Sys.word_size / 8)) /. 1e6

type fuzz_pass = {
  report : Fuzz.Campaign.report;
  schedules : int;  (** generator calls *)
  gen_s : float;  (** time inside the generator *)
  exec_s : float;  (** the rest of the campaign *)
}

let fuzz ~(w : Spec.workload) (f : Spec.fuzz) ~seed ~untraced =
  let config = Config.make ~n:f.n ~t:f.t in
  let algo = algo_of f.algo in
  let faults = faults_of f.faults in
  let proposals = Sim.Runner.distinct_proposals config in
  (* The generator [ipi fuzz] passes for an omission menu, with a timer
     around every call. It keeps every [stride]-th schedule as the monitor
     sample. With [probe] it measures the live heap after the last call,
     when the campaign holds the whole stream and has run nothing yet. *)
  let gen_s = ref 0. and generated = ref 0 and sample = ref [] in
  let live0 = ref 0. and retained_mb = ref 0. in
  let gen ~probe config rng =
    let s, dt =
      time (fun () ->
          Workload.Random_runs.with_omissions rng config ~faults ~omit_budget:1
            ())
    in
    gen_s := !gen_s +. dt;
    if !generated mod stride = 0 then sample := s :: !sample;
    incr generated;
    if probe && !generated = f.runs then retained_mb := live_mb () -. !live0;
    s
  in
  let campaign ?budget_s ~probe () =
    gen_s := 0.;
    generated := 0;
    sample := [];
    if probe then live0 := live_mb ();
    let report, wall =
      time (fun () ->
          Fuzz.Campaign.run ?budget_s ~seed ~runs:f.runs ~algo ~config
            ~proposals ~gen:(gen ~probe) ())
    in
    { report; schedules = !generated; gen_s = !gen_s; exec_s = wall -. !gen_s }
  in
  (* Generation alone, as [--budget 0] runs it: every run is skipped. *)
  let gen_only = campaign ~budget_s:0. ~probe:true () in
  if gen_only.report.skipped <> f.runs then
    fail "%s: %d of %d runs skipped at budget 0" w.name gen_only.report.skipped
      f.runs;
  let results, untraced_s =
    interleaved passes ~untraced (fun () -> campaign ~probe:false ())
  in
  let first = List.hd results in
  if first.report.passed <> f.runs then
    fail "%s: %d of %d runs passed" w.name first.report.passed f.runs;
  let exec ~monitor s =
    Fuzz.Harness.run_contained ~monitor ~algo ~config ~proposals s
  in
  let sampled monitor () = List.iter (fun s -> ignore (exec ~monitor s)) !sample in
  let pairs =
    List.init walk_reps (fun _ ->
        (snd (time (sampled true)), snd (time (sampled false))))
  in
  let on = Quantile.median (List.map fst pairs) in
  let off = Quantile.median (List.map snd pairs) in
  let fe = float_of_int in
  let med get = Quantile.median (List.map get results) in
  let gen_s = med (fun r -> r.gen_s) and exec_s = med (fun r -> r.exec_s) in
  ( [
      ("fuzz.gen.schedules", fe first.schedules);
      ("fuzz.gen_s", gen_s);
      ("fuzz.gen.retained_mb", !retained_mb);
      ("fuzz.exec_s", exec_s);
      ("fuzz.exec.us_per_run", exec_s *. 1e6 /. fe f.runs);
      ( "fuzz.monitor_s",
        (on -. off) *. fe f.runs /. fe (List.length !sample) );
      ("fuzz.passed", fe first.report.passed);
      ("fuzz.findings", fe (List.length first.report.findings));
    ],
    gen_s +. exec_s,
    exec_s,
    untraced_s )

let () =
  match Array.to_list Sys.argv with
  | [ _; "tasks"; name; k; procs ] -> (
      match
        (Spec.find_workload name, int_of_string_opt k, int_of_string_opt procs)
      with
      | Some { kind = Spec.Sweep s; _ }, Some k, Some procs ->
          serve_tasks s ~k ~procs
      | _ ->
          prerr_endline ("layers: bad task process arguments for " ^ name);
          exit 2)
  | [ _; name; seed; tmp; ipi ] -> (
      match (Spec.find_workload name, int_of_string_opt seed) with
      | Some w, Some seed ->
          let untraced = untraced w ~ipi ~seed ~tmp in
          let metrics, traced_wall_s, accounted_s, untraced_wall_s =
            match w.kind with
            | Spec.Sweep s -> sweep ~w s ~ipi ~tmp ~untraced
            | Spec.Fuzz f -> fuzz ~w f ~seed ~untraced
          in
          print_endline
            (J.to_string
               (J.Obj
                  [
                    ( "metrics",
                      J.Obj (List.map (fun (k, v) -> (k, J.Float v)) metrics) );
                    ("traced_wall_s", J.Float traced_wall_s);
                    ("accounted_s", J.Float accounted_s);
                    ("untraced_wall_s", J.Float untraced_wall_s);
                    ( "failures",
                      J.List (List.rev_map (fun s -> J.String s) !failures) );
                  ]))
      | _ ->
          prerr_endline ("layers: unknown workload or bad seed: " ^ name);
          exit 2)
  | _ ->
      prerr_endline "usage: layers.exe WORKLOAD SEED TMPDIR IPI";
      exit 2
