(** Seed-reproducible randomized fuzz campaigns.

    A campaign draws [runs] schedules from one seeded generator, executes
    each through the monitored, contained, fueled {!Harness}, optionally
    {!Shrink}s every failure, and aggregates a report.

    {b Determinism.} The schedule stream is drawn from the single [seed]
    one schedule at a time, as a run starts, so schedule [i] is the
    [i]-th draw. On [jobs >= 2] worker processes, runs [0, runs) are cut
    into contiguous tasks; each worker draws the stream itself from the
    seed, runs its tasks' schedules and answers with the indices of the
    failing ones. The campaign then rebuilds every finding in one pass
    over the stream, with the same draw, run and shrink as in process.
    Every report field except [wall_s] is therefore bit-identical across
    [jobs] values — unless a wall-clock [budget_s] expires mid-campaign,
    since how many runs start then depends on timing. The determinism
    tests and the fuzz goldens assert the [jobs] invariance.

    {b Memory.} In process, the campaign holds the run in flight and its
    findings, never the whole stream, so its memory does not grow with
    [runs]; on workers it also holds the failing indices. *)

open Kernel

type gen = Config.t -> Rng.t -> Sim.Schedule.t
(** A schedule generator; all randomness must come from the given rng. *)

type finding = {
  index : int;  (** position in the campaign's schedule stream *)
  schedule : Sim.Schedule.t;
  outcome : Outcome.t;  (** always a failure *)
  shrunk : Shrink.report option;
}

type report = {
  runs : int;  (** runs executed (excludes skipped) *)
  skipped : int;  (** runs dropped by the wall-clock budget *)
  passed : int;
  findings : finding list;  (** in stream order *)
  shrink_steps : int;  (** accepted reductions across all findings *)
  wall_s : float;
}

val default_gen : gen
(** Mixes {!Workload.Random_runs.synchronous},
    [synchronous_with_delays] and [eventually_synchronous] (gst 1..3)
    with equal probability. *)

val mutation_gen : base:Sim.Schedule.t -> gen
(** Perturbs [base] with 1–3 random {!Workload.Mutate} operators per
    run — dense exploration of a known-interesting neighbourhood. *)

val run :
  ?metrics:Obs.Metrics.t ->
  ?jobs:int ->
  ?worker_argv:string list ->
  ?fuel:int ->
  ?budget_s:float ->
  ?shrink:bool ->
  ?monitor:bool ->
  ?prof:Obs.Prof.acc ->
  ?progress:Obs.Progress.t ->
  seed:int ->
  runs:int ->
  algo:Sim.Algorithm.packed ->
  config:Config.t ->
  proposals:Value.t Pid.Map.t ->
  gen:gen ->
  unit ->
  report
(** Run a campaign. [jobs] (default 1) at most 1 runs every run in this
    process, one after another. [jobs >= 2] runs the tasks on that many
    supervised worker processes ({!Mc.Supervise}), each started as
    [worker_argv]: an [ipi fuzz-worker] invocation that builds the same
    [algo], [config], [gen], [seed], [runs] and [fuel], and calls
    {!worker_loop} (Invalid_argument without one); workers always run the
    monitor. A task whose retries run out raises [Failure] naming the
    task.

    [fuel] bounds each run's rounds (default: the engine bound per
    schedule); [budget_s] is a wall-clock cap after which remaining runs
    are {e skipped}, not aborted mid-run: in process, nothing more is
    drawn once it has expired; on workers, the tasks in flight end and
    their runs are skipped too. [skipped] is [runs] minus the runs
    executed. [shrink] (default [false]) minimizes every finding;
    [monitor] (default [true]) enables the online monitor (off =
    post-hoc checking only, for overhead benchmarks). If [gen] raises,
    the exception leaves [run] and nothing more is drawn.

    With [metrics] the campaign reports the [fuzz.runs],
    [fuzz.violations] (safety/termination findings), [fuzz.crashed]
    (contained faults, [Crashed] + [Raised]), [fuzz.budget_exhausted],
    [fuzz.skipped] and [fuzz.shrink_steps] counters, the [fuzz.jobs]
    gauge and the [fuzz.wall_seconds] / [fuzz.runs_per_second]
    histograms.

    Instrumentation (default-off, never affects the report): in process,
    [prof] accumulates a GC/alloc interval per executed run; [progress]
    gets its total set to [runs] and is stepped once per executed run in
    process, once per completed task on workers (skipped runs are not
    stepped, so a budget-cut campaign finishes below its total). *)

val worker_loop :
  ?fuel:int ->
  seed:int ->
  runs:int ->
  algo:Sim.Algorithm.packed ->
  config:Config.t ->
  proposals:Value.t Pid.Map.t ->
  gen:gen ->
  in_channel ->
  out_channel ->
  unit
(** The [ipi fuzz-worker] body, over {!Mc.Supervise.serve}: run task
    [k]'s schedules — drawn from [seed], skipping the other tasks' draws,
    and from the seed again when handed an earlier task — and answer
    [{"task": k, "failed": [indices]}]. *)

val to_json : ?meta:(string * Obs.Json.t) list -> report -> Obs.Json.t
(** Machine-readable report; schedules are embedded as {!Sim.Codec}
    strings so counterexamples replay with [ipi run --schedule]. [meta]
    key/values (seed, algorithm, config ...) are prepended verbatim. *)

val pp_finding : Format.formatter -> finding -> unit
val pp_report : Format.formatter -> report -> unit
