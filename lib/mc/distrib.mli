(** The sweep driver: the one way to run an exhaustive sweep.

    A sweep is a {!spec}. The driver cuts it into numbered {e tasks} —
    one first-round choice subtree for a fixed-proposal sweep, one
    proposal assignment (or one symmetry orbit) for a binary sweep — runs
    each task as one depth-first search over {!Menu} and the engine arena,
    and folds the task results back {e in task order}:

    - the search's transposition table is the reduction: none, or the
      {!Dedup} table with one fresh table per first-round subtree;
      [dedup+sym] additionally makes the binary tasks the [n + 1]
      {!Symmetry} orbits when the algorithm is symmetric;
    - an {!executor} runs the pending tasks: one after another in this
      process, or on supervised [ipi sweep-worker] processes;
    - every executor shares {!run_task}, the checkpoint bookkeeping, the
      progress meter, spans, metrics and shard-failure containment, and
      {!merge_entries}.

    Because the merge is a deterministic fold in task order over per-task
    results that do not depend on who computed them, {e any} executor,
    worker count, chaos, interruption and resume yields the
    same aggregates as one undisturbed serial sweep, and the same as the
    from-scratch oracle {!Exhaustive.sweep}. Tasks interrupted mid-subtree
    are never persisted — they rerun whole on resume.

    The same search computes each task's {!Exhaustive.valency} and the
    sweep's (Lemmas 3 and 4): [Fixed] tasks are subtrees of one root,
    [Binary] tasks separate trees, so the first bivalent [Binary] task is
    a bivalent initial configuration. Under {!Rsym} the bivalent path is
    an orbit representative's: its length is exact. *)

open Kernel

type reduce =
  | Rnone
  | Rdedup  (** the {!Dedup} transposition table *)
  | Rsym
      (** [Rdedup], plus orbit tasks for a [Binary] sweep of a symmetric
          algorithm (exact aggregates, one witness per orbit); a [Fixed]
          sweep or an asymmetric algorithm keeps the [Rdedup] tasks *)

type scope =
  | Fixed of Value.t Pid.Map.t  (** one proposal assignment *)
  | Binary  (** all [2^n] binary assignments *)

type spec = {
  faults : Sim.Model.faults;
  omit_budget : int option;
  policy : Serial.policy;
  horizon : int option;  (** [None]: the usual [t + 2] *)
  algo : Sim.Algorithm.packed;
  config : Config.t;
  reduce : reduce;
  scope : scope;
  table_cap : int option;  (** {!Dedup} in-memory entry cap *)
  spill_dir : string option;  (** disk overflow directory for the cap *)
}

val make :
  ?faults:Sim.Model.faults ->
  ?omit_budget:int ->
  ?policy:Serial.policy ->
  ?horizon:int ->
  ?reduce:reduce ->
  ?table_cap:int ->
  ?spill_dir:string ->
  algo:Sim.Algorithm.packed ->
  Config.t ->
  scope ->
  spec
(** A spec with the usual defaults: [Crash_only], [Prefixes], horizon
    [t + 2], [Rnone], no cap. *)

val total_tasks : spec -> int
(** Tasks are indexed [0 .. total_tasks - 1] in enumeration order:
    first-round choices for [Fixed], assignments for [Binary] ([n + 1]
    orbits under {!Rsym} when the algorithm is symmetric). *)

val run_task :
  ?deadline:float ->
  ?prof:Obs.Prof.acc ->
  ?spans:Obs.Span.t ->
  spec ->
  int ->
  Checkpoint.entry
(** Execute one task to completion: its result, its {!Dedup.stats}
    ([None] when unreduced) and the engine rounds it stepped. If
    [deadline] passes mid-task the result has [expired = true] — such an
    entry must not be persisted or merged as completed. [prof] records one
    interval per engine round over the distinct work; [spans] one ["run"]
    span per simulated leaf. *)

val merge_entries :
  spec -> Checkpoint.entry list -> Exhaustive.result * Dedup.stats option * int
(** Fold entries (ascending task order, no gaps required) into the
    aggregate — {!Exhaustive.combine} for [Fixed] (the one-pass search's
    list order), {!Exhaustive.merge} for [Binary] — plus summed stats
    ([None] when unreduced) and engine edges. Over the full task range
    this is the undisturbed serial sweep, bit-identically. *)

type executor =
  | In_process
      (** every task in this process, one after another: the reference
          executor *)
  | Workers of {
      workers : int;
      worker_argv : string list;
          (** an [ipi sweep-worker] invocation carrying the same sweep
              flags *)
      chaos : Supervise.chaos option;
      chunk_timeout : float option;
      max_retries : int option;
    }  (** supervised worker processes ({!Supervise}) *)

type run = {
  result : Exhaustive.result;
      (** merged aggregates; on a partial run this covers completed tasks
          plus the explored fragments of tasks a deadline cut short,
          faithfully flagged [expired] *)
  stats : Dedup.stats option;  (** reduced sweeps only *)
  edges : int;
  completed : Checkpoint.entry list;  (** what a checkpoint would hold *)
  total_tasks : int;
  partial : bool;
      (** stopped, expired or interrupted before all tasks finished *)
  sup_metrics : Supervise.metrics option;  (** [Workers] only *)
}

val run :
  ?executor:executor ->
  ?resume:Checkpoint.t ->
  ?checkpoint:string * int ->
  ?should_stop:(unit -> bool) ->
  ?deadline:float ->
  ?metrics:Obs.Metrics.t ->
  ?prof:Obs.Prof.acc ->
  ?spans:Obs.Span.t ->
  ?progress:Obs.Progress.t ->
  ?params:Obs.Json.t ->
  spec ->
  (run, string) result
(** Run every pending task on [executor] (default [In_process]) and merge.

    - [resume] seeds completed tasks from a loaded snapshot; it must be
      {!Checkpoint.compatible} with [params] (default [Null]) and have
      this sweep's task count, otherwise the [Error].
    - [checkpoint = (path, every)] snapshots after every [every]
      completed tasks and once more on exit — normal, stopped, or expired.
    - [should_stop] is polled before each task (the SIGINT/SIGTERM hook);
      [deadline] (absolute [Unix.gettimeofday] time) is checked before
      each task and, in process, inside each task's search. Either makes
      the run [partial].
    - A task that raises something the engine does not contain (e.g. an
      exception escaping [Algorithm.init]) becomes an
      {!Exhaustive.shard_failure} with its task index and context, under
      every executor.
    - [progress] steps once per completed task, with the total set up
      front. [spans] gets a ["sweep"] span; in process, each task adds a
      ["shard <i>: <context>"] span nesting its ["run"] spans. [prof]
      accumulates the tasks' per-round intervals (in process only).
      [metrics] receives [mc.runs], [mc.distinct_runs],
      [mc.violations], [mc.undecided_runs], [mc.crashed_runs],
      [mc.shard_failures], [mc.prefix_hits] (engine rounds saved by
      prefix sharing), the [mc.max_decision_round] gauge, the
      [mc.workers] gauge under [Workers], the [mc.sweep_cpu_seconds],
      [mc.sweep_wall_seconds] and [mc.schedules_per_second] histograms,
      and, when reduced, [mc.dedup_hits], [mc.dedup_entries],
      [mc.arena_snapshots], [mc.arena_restores] and [mc.orbits]. None of
      these instruments changes the result. *)

val run_supervised :
  ?resume:Checkpoint.t ->
  ?checkpoint:string * int ->
  ?should_stop:(unit -> bool) ->
  ?chaos:Supervise.chaos ->
  ?chunk_timeout:float ->
  ?max_retries:int ->
  ?progress:Obs.Progress.t ->
  workers:int ->
  worker_argv:string list ->
  params:Obs.Json.t ->
  spec ->
  (run, string) result
(** {!run} with the [Workers] executor. *)

val worker_loop : spec -> in_channel -> out_channel -> unit
(** The [ipi sweep-worker] body, over {!Supervise.serve}: run each task
    and answer its entry as a frame [{"task", "result", "stats", "edges"}]
    — or [{"task", "failure"}] when the task raised. *)

val entry_to_frame : Checkpoint.entry -> Obs.Json.t
(** The worker protocol's result frame: {!Checkpoint.entry_to_json}, so
    the snapshot and wire formats cannot drift apart. *)
