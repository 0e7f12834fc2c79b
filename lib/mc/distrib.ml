open Kernel
module J = Obs.Json

type reduce = Rnone | Rdedup | Rsym
type scope = Fixed of Value.t Pid.Map.t | Binary

type spec = {
  faults : Sim.Model.faults;
  omit_budget : int option;
  policy : Serial.policy;
  horizon : int option;
  algo : Sim.Algorithm.packed;
  config : Config.t;
  reduce : reduce;
  scope : scope;
  table_cap : int option;
  spill_dir : string option;
}

let make ?(faults = Sim.Model.Crash_only) ?omit_budget
    ?(policy = Serial.Prefixes) ?horizon ?(reduce = Rnone) ?table_cap
    ?spill_dir ~algo config scope =
  {
    faults;
    omit_budget;
    policy;
    horizon;
    algo;
    config;
    reduce;
    scope;
    table_cap;
    spill_dir;
  }

let horizon_of spec =
  Option.value spec.horizon ~default:(Config.t spec.config + 2)

(* ------------------------------------------------------------------ *)
(* Tasks                                                               *)

(* The first-round subtrees, as the choice prefixes that pin them; with
   no round left to choose, the whole tree is the one subtree. *)
let subtrees spec =
  if horizon_of spec = 0 then [ [] ]
  else
    List.map
      (fun c -> [ c ])
      (Serial.adversary_choices ~policy:spec.policy ~faults:spec.faults
         (Serial.initial ?omit_budget:spec.omit_budget ~faults:spec.faults
            spec.config))

let orbit_tasks spec = spec.reduce = Rsym && Sim.Algorithm.symmetric spec.algo

(* A binary sweep's tasks: each proposal assignment it explores, with the
   number of assignments that one stands for. *)
let assignments spec =
  if orbit_tasks spec then
    List.map
      (fun (o : Symmetry.orbit) -> (o.proposals, o.multiplicity))
      (Symmetry.orbits spec.config)
  else List.map (fun p -> (p, 1)) (Exhaustive.binary_assignments spec.config)

let total_tasks spec =
  match spec.scope with
  | Fixed _ -> List.length (subtrees spec)
  | Binary -> List.length (assignments spec)

let task_context spec i =
  match spec.scope with
  | Fixed _ -> (
      match List.nth (subtrees spec) i with
      | [ c ] -> Format.asprintf "first-round choice %a" Serial.pp_choice c
      | _ -> "the whole choice tree")
  | Binary when orbit_tasks spec -> Printf.sprintf "orbit |ones| = %d" i
  | Binary -> Printf.sprintf "proposal assignment #%d" i

(* ------------------------------------------------------------------ *)
(* The search                                                          *)

(* Prepend [cs] to every choice list of a fragment. A fragment with no
   witness decided nothing, so its valency has no path either. *)
let lift_by cs (frag : Exhaustive.result) =
  if frag.max_witness = None && frag.violations = [] && frag.crashed = [] then
    frag
  else
    {
      frag with
      max_witness = Option.map (fun w -> cs @ w) frag.max_witness;
      violations = List.map (fun (w, vs) -> (cs @ w, vs)) frag.violations;
      crashed =
        List.map
          (fun (c : Exhaustive.crashed_run) -> { c with choices = cs @ c.choices })
          frag.crashed;
      valency =
        (match frag.valency with Bivalent p -> Bivalent (cs @ p) | v -> v);
    }

(* One depth-first walk of the choice tree below [prefix], over the menu
   and one arena, with an optional transposition table.

   Without a table, runs accumulate in place into one result whose choice
   lists are relative to the task root: a clean leaf allocates its result
   record and its valency, nothing else.
   With a table, every miss opens a fresh fragment frame relative to its
   node, stores it, and folds it into the enclosing frame lifted by the
   path between the two; a hit folds the stored fragment in the same way.

   Valency: a node's is its children's, joined as siblings. With a table
   every node is a frame, folding its children with {!Exhaustive.combine},
   so each fragment holds its subtree's valency, lifted like its witnesses
   on a hit. Without one, [below] holds each open node's valency so far,
   and a closing child joins its parent's: no result record is copied.

   Branch discipline: one snapshot per expanded node, taken before its
   first child and restored before every later sibling; the last child
   leaves the arena wherever it ran to (end of a leaf run, or mid-round
   after a raise) and the parent's own snapshot covers the residue. A
   [Step_error] on an edge poisons the subtree below it: every leaf under
   the edge records that error, which is what the oracle observes run by
   run, and poisoned subtrees never touch the arena. *)
let search ?deadline ?prof ?(spans = Obs.Span.disabled) ~memo spec ~proposals
    ~prefix =
  let (Sim.Algorithm.Packed (module A)) = spec.algo in
  let module E = Sim.Engine.Make (A) in
  let config = spec.config in
  let horizon = horizon_of spec in
  let depth0 = horizon - List.length prefix in
  if depth0 < 0 then invalid_arg "Distrib.search: prefix longer than the horizon";
  let max_rounds = Sim.Engine.round_bound config ~horizon ~gst:1 in
  let menu =
    Menu.create ~faults:spec.faults ?omit_budget:spec.omit_budget
      ~policy:spec.policy config
  in
  let check = Exhaustive.deadline_check deadline in
  let arena = E.Arena.create config ~proposals in
  let table =
    if memo then
      Some
        (Dedup.create ?cap:spec.table_cap ?spill_dir:spec.spill_dir
           ~probe:(fun () -> E.Arena.probe_fingerprint arena)
           ~copy:E.Arena.copy_fingerprint ())
    else None
  in
  let edges = ref 0 in
  let step cplan =
    incr edges;
    match prof with
    | None -> E.Arena.step arena cplan
    | Some a -> Obs.Prof.measure a (fun () -> E.Arena.step arena cplan)
  in
  (* [path.(d)] is the choice taken [d] rounds below the task root; the
     current frame's choice lists start at [base]. *)
  let path = Array.make (max depth0 1) Serial.No_crash in
  let acc = ref Exhaustive.empty and base = ref 0 in
  let rec between b p tail =
    if p <= b then tail else between b (p - 1) (path.(p - 1) :: tail)
  in
  let leaf_choices () = between !base depth0 [] in
  let lift b p frag = if p = b then frag else lift_by (between b p []) frag in
  let below = Array.make (depth0 + 1) Exhaustive.Undecided in
  (* The open node [p] closes: it joins its parent's valency. *)
  let close p =
    below.(p - 1) <-
      Exhaustive.join_valency ~siblings:true below.(p - 1)
        (match below.(p) with
        | Bivalent q -> Bivalent (path.(p - 1) :: q)
        | v -> v)
  in
  let leaf (node : Menu.node) = function
    | Some error ->
        acc := Exhaustive.add_crashed !acc ~choices:(leaf_choices ()) ~error
    | None ->
        if Obs.Span.enabled spans then Obs.Span.enter spans "run";
        (match
           E.Arena.finish ~max_rounds ?prof ~schedule:node.Menu.leaf_schedule
             arena
         with
        | trace ->
            acc := Exhaustive.add_run !acc ~choices:leaf_choices ~trace;
            if not memo then below.(depth0) <- Exhaustive.run_valency trace
        | exception Sim.Engine.Step_error error ->
            acc := Exhaustive.add_crashed !acc ~choices:(leaf_choices ()) ~error);
        if Obs.Span.enabled spans then Obs.Span.exit spans
  in
  let rec visit depth node err =
    if depth = 0 then check ();
    let p = depth0 - depth in
    match table with
    | None ->
        below.(p) <- Undecided;
        expand depth node err;
        if p > 0 then close p
    | Some t -> (
        match Dedup.find t ~depth node err with
        | Dedup.Hit frag ->
            acc :=
              Exhaustive.combine !acc
                (lift !base p { frag with Exhaustive.distinct_runs = 0 })
        | Dedup.Miss key ->
            let outer = !acc and outer_base = !base in
            acc := Exhaustive.empty;
            base := p;
            expand depth node err;
            let frag = !acc in
            Dedup.add t key frag;
            base := outer_base;
            acc := Exhaustive.combine outer (lift outer_base p frag))
  and expand depth (node : Menu.node) err =
    if depth = 0 then leaf node err
    else
      let p = depth0 - depth in
      let k = Array.length node.choices in
      match err with
      | Some _ ->
          for i = 0 to k - 1 do
            path.(p) <- node.choices.(i);
            visit (depth - 1) (Menu.child menu node i) err
          done
      | None ->
          E.Arena.save arena;
          for i = 0 to k - 1 do
            if i > 0 then E.Arena.restore arena;
            path.(p) <- node.choices.(i);
            let err' =
              try
                step node.plans.(i);
                None
              with Sim.Engine.Step_error e -> Some e
            in
            visit (depth - 1) (Menu.child menu node i) err'
          done;
          E.Arena.drop arena
  in
  (* Replay the prefix once, into the arena; a [Step_error] on a prefix
     round poisons the whole subtree below. *)
  let root_err =
    List.fold_left
      (fun err choice ->
        match err with
        | Some _ -> err
        | None -> (
            try
              step
                (Sim.Schedule.compile_plan ~n:(Config.n config)
                   (Serial.plan_of config choice));
              None
            with Sim.Engine.Step_error e -> Some e))
      None prefix
  in
  let root =
    Menu.node_of menu
      (List.fold_left Serial.advance
         (Serial.initial ?omit_budget:spec.omit_budget ~faults:spec.faults
            config)
         prefix)
  in
  let expired =
    Fun.protect
      ~finally:(fun () -> Option.iter Dedup.close table)
      (fun () ->
        match visit depth0 root root_err with
        | () -> false
        | exception Exhaustive.Expired ->
            (* The deadline struck at a leaf: its ancestors are open. *)
            for p = depth0 - 1 downto 1 do
              close p
            done;
            true)
  in
  (* An expired table search unwound its open frames, so only the
     unreduced search still holds what it explored, valency included. *)
  let result =
    if expired && memo then Exhaustive.empty
    else
      let r = if memo then !acc else { !acc with valency = below.(0) } in
      if prefix = [] then r else lift_by prefix r
  in
  ( { result with Exhaustive.expired },
    {
      (match table with Some t -> Dedup.stats t | None -> Dedup.zero_stats) with
      Dedup.edges = !edges;
      snapshots = E.Arena.snapshots arena;
      restores = E.Arena.restores arena;
    } )

let run_task ?deadline ?prof ?spans spec i =
  let memo = spec.reduce <> Rnone in
  let search = search ?deadline ?prof ?spans ~memo spec in
  let result, stats =
    match spec.scope with
    | Fixed proposals -> search ~proposals ~prefix:(List.nth (subtrees spec) i)
    | Binary ->
        let proposals, multiplicity = List.nth (assignments spec) i in
        let result, stats =
          if not memo then search ~proposals ~prefix:[]
          else
            (* One fresh table per first-round subtree, as for [Fixed]. *)
            List.fold_left
              (fun (acc, stats) prefix ->
                if acc.Exhaustive.expired then (acc, stats)
                else
                  let r, s = search ~proposals ~prefix in
                  (Exhaustive.combine acc r, Dedup.merge_stats stats s))
              (Exhaustive.empty, Dedup.zero_stats)
              (subtrees spec)
        in
        (Symmetry.scale multiplicity result, stats)
  in
  {
    Checkpoint.task = i;
    result;
    stats = (if memo then Some stats else None);
    edges = stats.Dedup.edges;
  }

let merge_entries spec entries =
  let fold =
    match spec.scope with
    | Fixed _ -> Exhaustive.combine
    | Binary -> Exhaustive.merge
  in
  let result =
    List.fold_left
      (fun acc (e : Checkpoint.entry) -> fold acc e.result)
      Exhaustive.empty entries
  in
  let stats =
    match spec.reduce with
    | Rnone -> None
    | Rdedup | Rsym ->
        Some
          (List.fold_left
             (fun acc (e : Checkpoint.entry) ->
               Dedup.merge_stats acc
                 (Option.value ~default:Dedup.zero_stats e.stats))
             Dedup.zero_stats entries)
  in
  let edges =
    List.fold_left (fun acc (e : Checkpoint.entry) -> acc + e.edges) 0 entries
  in
  (result, stats, edges)

(* ------------------------------------------------------------------ *)
(* Executors                                                           *)

type executor =
  | In_process
  | Workers of {
      workers : int;
      worker_argv : string list;
      chaos : Supervise.chaos option;
      chunk_timeout : float option;
      max_retries : int option;
    }

type run = {
  result : Exhaustive.result;
  stats : Dedup.stats option;
  edges : int;
  completed : Checkpoint.entry list;
  total_tasks : int;
  partial : bool;
  sup_metrics : Supervise.metrics option;
}

let entry_to_frame = Checkpoint.entry_to_json

(* What an executor reports besides the entries it hands to [complete]:
   tasks that raised, the display-only fragments of tasks a deadline cut
   short, whether it stopped before running everything, and the
   supervisor's counters. *)
type outcome = {
  failures : (int * string) list;
  fragments : Checkpoint.entry list;
  stopped : bool;
  sup_metrics : Supervise.metrics option;
}

let past = function Some d -> Unix.gettimeofday () > d | None -> false

(* Tasks one after another in this process, sharing the caller's [prof]
   and [spans]. A task runs only while [should_stop] and the deadline
   allow; after the first refusal or cut-short task no further task
   starts. Anything a task raises besides the engine's own contained
   errors becomes a failure of that task. *)
let in_process ?deadline ~should_stop ?prof ~spans spec ~pending ~complete =
  let outcome ?(fragments = []) failures ~stopped =
    { failures; fragments; stopped; sup_metrics = None }
  in
  let rec go failures = function
    | [] -> outcome failures ~stopped:false
    | _ when should_stop () || past deadline -> outcome failures ~stopped:true
    | i :: rest -> (
        let task () = run_task ?deadline ?prof ~spans spec i in
        match
          if Obs.Span.enabled spans then
            Obs.Span.with_ spans
              (Printf.sprintf "shard %d: %s" i (task_context spec i))
              task
          else task ()
        with
        | e when e.Checkpoint.result.expired ->
            outcome failures ~fragments:[ e ] ~stopped:true
        | e ->
            complete e;
            go failures rest
        | exception ((Stack_overflow | Out_of_memory) as x) -> raise x
        | exception x -> go ((i, Printexc.to_string x) :: failures) rest)
  in
  go [] pending

(* Tasks on supervised [ipi sweep-worker] processes. A worker whose task
   raised answers with a failure frame; a task whose retries ran out
   fails with the supervisor's reason. *)
let on_workers ~workers ~worker_argv ?chaos ?chunk_timeout ?max_retries
    ~should_stop ~pending ~complete () =
  let failures = ref [] in
  let on_result ~task payload =
    match Option.bind (J.member "failure" payload) J.to_string_opt with
    | Some message -> failures := (task, message) :: !failures
    | None -> (
        match Checkpoint.entry_of_json payload with
        | Ok entry -> complete entry
        | Error msg ->
            failures := (task, "bad result frame: " ^ msg) :: !failures)
  in
  let prog =
    match worker_argv with
    | prog :: _ -> prog
    | [] -> invalid_arg "Distrib: empty worker_argv"
  in
  let o =
    Supervise.run ?chaos ~should_stop ~on_result ?chunk_timeout ?max_retries
      ~workers
      ~spawn:(fun () -> Proc.spawn ~prog ~args:worker_argv)
      ~tasks:pending ()
  in
  {
    failures = !failures @ o.failed;
    fragments = [];
    stopped = o.interrupted <> [];
    sup_metrics = Some o.metrics;
  }

(* ------------------------------------------------------------------ *)
(* The driver                                                          *)

let validate_resume resume ~params ~total =
  match resume with
  | None -> Ok []
  | Some (ck : Checkpoint.t) -> (
      match Checkpoint.compatible ck ~params with
      | Error _ as e -> e
      | Ok () ->
          if ck.total_tasks <> total then
            Error
              (Printf.sprintf
                 "checkpoint: task count mismatch (snapshot has %d, this sweep \
                  has %d)"
                 ck.total_tasks total)
          else Ok ck.completed)

let step_progress progress (e : Checkpoint.entry) =
  if Obs.Progress.enabled progress then
    let hits, lookups =
      match e.stats with
      | Some s -> (s.Dedup.hits, s.Dedup.hits + s.Dedup.misses)
      | None -> (0, 0)
    in
    (* [distinct] only when a reduction ran: unreduced entries have
       [distinct_runs = runs], which would merely relabel the rate. *)
    let distinct =
      match e.stats with
      | Some _ -> e.Checkpoint.result.distinct_runs
      | None -> 0
    in
    Obs.Progress.step progress ~distinct ~items:1
      ~runs:e.Checkpoint.result.runs ~hits ~lookups

let by_task (a : Checkpoint.entry) (b : Checkpoint.entry) = compare a.task b.task

let report m spec executor ~wall0 ~cpu0 (r : run) =
  let counter name by = Obs.Metrics.incr ~by (Obs.Metrics.counter m name) in
  let gauge name v = Obs.Metrics.set (Obs.Metrics.gauge m name) v in
  let res = r.result in
  counter "mc.runs" res.runs;
  counter "mc.distinct_runs" res.distinct_runs;
  Option.iter
    (fun (s : Dedup.stats) ->
      counter "mc.dedup_hits" s.hits;
      gauge "mc.dedup_entries" s.entries;
      counter "mc.arena_snapshots" s.snapshots;
      counter "mc.arena_restores" s.restores)
    r.stats;
  (match spec.scope with
  | Binary when orbit_tasks spec -> gauge "mc.orbits" r.total_tasks
  | Binary | Fixed _ -> ());
  counter "mc.violations" (List.length res.violations);
  counter "mc.undecided_runs" res.undecided_runs;
  counter "mc.crashed_runs" (List.length res.crashed);
  counter "mc.shard_failures" (List.length res.shard_failures);
  gauge "mc.max_decision_round" res.max_decision;
  (match executor with
  | In_process -> ()
  | Workers w -> gauge "mc.workers" w.workers);
  let prefix_hits = (res.runs * horizon_of spec) - r.edges in
  if prefix_hits > 0 then counter "mc.prefix_hits" prefix_hits;
  let observe name v = Obs.Metrics.observe (Obs.Metrics.histogram m name) v in
  let wall = Unix.gettimeofday () -. wall0 in
  observe "mc.sweep_cpu_seconds" (Sys.time () -. cpu0);
  observe "mc.sweep_wall_seconds" wall;
  (* Throughput over the wall clock: under workers this process's CPU
     time leaves out the work. *)
  if wall > 0. then
    observe "mc.schedules_per_second" (float_of_int res.runs /. wall)

let run ?(executor = In_process) ?resume ?checkpoint
    ?(should_stop = fun () -> false) ?deadline ?metrics ?prof
    ?(spans = Obs.Span.disabled) ?(progress = Obs.Progress.disabled)
    ?(params = J.Null) spec =
  let total = total_tasks spec in
  match validate_resume resume ~params ~total with
  | Error _ as e -> e
  | Ok resumed ->
      let wall0 = Unix.gettimeofday () and cpu0 = Sys.time () in
      Obs.Progress.set_total progress total;
      List.iter (step_progress progress) resumed;
      let finished = Array.make total false in
      List.iter (fun (e : Checkpoint.entry) -> finished.(e.task) <- true) resumed;
      let pending =
        List.filter (fun i -> not finished.(i)) (List.init total Fun.id)
      in
      let completed = ref resumed in
      let every = match checkpoint with Some (_, n) -> max 1 n | None -> 1 in
      let since_save = ref 0 in
      let save () =
        match checkpoint with
        | None -> ()
        | Some (path, _) ->
            Checkpoint.save ~path
              {
                Checkpoint.commit = Checkpoint.current_commit ();
                params;
                total_tasks = total;
                completed = List.sort by_task !completed;
              }
      in
      let complete e =
        completed := e :: !completed;
        step_progress progress e;
        incr since_save;
        if !since_save >= every then begin
          save ();
          since_save := 0
        end
      in
      let o =
        Obs.Span.with_ spans "sweep" (fun () ->
            match executor with
            | In_process ->
                in_process ?deadline ~should_stop ?prof ~spans spec ~pending
                  ~complete
            | Workers w ->
                on_workers ~workers:w.workers ~worker_argv:w.worker_argv
                  ?chaos:w.chaos ?chunk_timeout:w.chunk_timeout
                  ?max_retries:w.max_retries
                  ~should_stop:(fun () -> should_stop () || past deadline)
                  ~pending ~complete ())
      in
      save ();
      let entries = List.sort by_task !completed in
      (* A cut-short task's fragment is shown, flagged [expired], but
         never persisted: the task reruns whole on resume. *)
      let result, stats, edges =
        merge_entries spec (List.sort by_task (entries @ o.fragments))
      in
      let shard_failures =
        List.map
          (fun (task, message) ->
            { Exhaustive.shard = task; context = task_context spec task; message })
          (List.sort compare o.failures)
      in
      let r =
        {
          result = { result with Exhaustive.shard_failures };
          stats;
          edges;
          completed = entries;
          total_tasks = total;
          partial = o.stopped || o.fragments <> [];
          sup_metrics = o.sup_metrics;
        }
      in
      Option.iter (fun m -> report m spec executor ~wall0 ~cpu0 r) metrics;
      Ok r

let run_supervised ?resume ?checkpoint ?should_stop ?chaos ?chunk_timeout
    ?max_retries ?progress ~workers ~worker_argv ~params spec =
  run
    ~executor:(Workers { workers; worker_argv; chaos; chunk_timeout; max_retries })
    ?resume ?checkpoint ?should_stop ?progress ~params spec

(* ------------------------------------------------------------------ *)
(* Worker side                                                         *)

let worker_loop spec =
  Supervise.serve ~name:"sweep-worker" ~tasks:(total_tasks spec) (fun i ->
      match run_task spec i with
      | entry -> entry_to_frame entry
      | exception ((Stack_overflow | Out_of_memory) as x) -> raise x
      | exception x ->
          J.Obj
            [ ("task", J.Int i); ("failure", J.String (Printexc.to_string x)) ])
