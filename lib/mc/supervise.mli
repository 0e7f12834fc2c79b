(** A supervisor for worker {e processes} chewing through a task list:
    the one parallel executor of sweeps and fuzz campaigns, built for
    hostility. Workers are murdered, wedged and preempted — by the OS, by
    an operator, or by the built-in {!chaos} injector — and the work must
    converge anyway.

    The supervisor owns a pool of [workers] children (spawned by a caller
    factory, e.g. [ipi sweep-worker] or [ipi fuzz-worker]), assigns tasks
    over a length-prefixed JSON pipe protocol ({!Obs.Wire}), and enforces:

    - {b per-chunk timeouts}: an assignment not answered within
      [chunk_timeout] seconds gets its worker SIGKILLed and the task
      reassigned;
    - {b death detection}: worker exit, kill, or a malformed/truncated
      frame all count as death; the in-flight task is reassigned;
    - {b bounded retry}: a task is attempted at most [max_retries + 1]
      times, then recorded as failed (the driver maps this to a
      {!Exhaustive.shard_failure} — one poisoned task never aborts the
      sweep);
    - {b exponential backoff}: a slot that keeps dying respawns after
      [backoff * 2^(consecutive deaths - 1)] seconds, capped, so a
      crash-looping worker binary cannot busy-spin the supervisor.

    {b Protocol.} Supervisor to worker, one frame per assignment:
    [{"task": i}]; then [{"shutdown": true}] when done. Worker to
    supervisor: one frame per finished task, an object carrying back
    ["task": i] plus the driver's payload. The supervisor treats any
    frame without a valid in-flight ["task"] as a protocol error (death).

    {b Determinism.} Completion order is timing-dependent, but the
    supervisor never interprets payloads — the drivers ({!Distrib} and
    [Fuzz.Campaign]) merge them by task index, which is what keeps
    aggregates bit-identical to serial for any worker count, any chaos,
    any interleaving.

    {b Chaos.} The seeded injector fires on task assignments with
    probability [rate_pct]%, at most [budget] times per run: [Kill]
    SIGKILLs the worker just after handing it the task, [Stall] SIGSTOPs
    it and leaves the chunk timeout to rescue the task, [Slow] SIGSTOPs
    and SIGCONTs after [resume_after] seconds so the task finishes late
    but finishes. With [budget < max_retries] a chaos-ridden run is
    {e guaranteed} to complete: every task survives at least one
    undisturbed attempt. *)

type chaos_mode = Kill | Stall | Slow

val chaos_mode_of_string : string -> (chaos_mode, string) result
(** ["kill" | "stall" | "slow"], as the CLI spells them. *)

val pp_chaos_mode : Format.formatter -> chaos_mode -> unit

type chaos = {
  mode : chaos_mode;
  seed : int;  (** drives a {!Kernel.Rng}; same seed, same injection draws *)
  rate_pct : int;  (** injection chance per assignment, 0–100 *)
  budget : int;  (** total injections per run *)
  resume_after : float;  (** [Slow] only: seconds until SIGCONT *)
}

val default_chaos : chaos_mode -> seed:int -> chaos
(** rate 25%, budget 3, resume after 0.2s. *)

type metrics = {
  spawned : int;  (** workers started, respawns included *)
  deaths : int;  (** exits, kills and protocol errors *)
  timeouts : int;  (** chunk timeouts (counted in [deaths] too) *)
  retries : int;  (** task reassignments *)
  chaos_injected : int;
  frames : int;  (** well-formed result frames *)
}

val metrics_to_json : metrics -> Obs.Json.t
val pp_metrics : Format.formatter -> metrics -> unit

type outcome = {
  completed : (int * Obs.Json.t) list;
      (** ascending task index; payload is the worker's whole result
          frame *)
  failed : (int * string) list;  (** ascending; retries exhausted *)
  interrupted : int list;  (** pending when [should_stop] fired *)
  metrics : metrics;
}

val run :
  ?chaos:chaos ->
  ?should_stop:(unit -> bool) ->
  ?on_result:(task:int -> Obs.Json.t -> unit) ->
  ?chunk_timeout:float ->
  ?max_retries:int ->
  ?backoff:float ->
  workers:int ->
  spawn:(unit -> Kernel.Proc.child) ->
  tasks:int list ->
  unit ->
  outcome
(** Drive [tasks] (the driver's indices, any order — preserved for
    assignment) to completion across [workers] children. [on_result] runs
    in completion order as frames arrive — the driver's hook for progress
    meters and periodic checkpoints. [should_stop] is polled every loop
    iteration; once true, workers are killed and unfinished tasks land in
    [interrupted]. Defaults: no chaos, 60s chunk timeout, 3 retries, 0.1s
    backoff base. SIGPIPE is ignored for the duration (writes to a dead
    worker surface as [EPIPE], i.e. a death, not a crash). *)

val serve :
  name:string ->
  tasks:int ->
  (int -> Obs.Json.t) ->
  in_channel ->
  out_channel ->
  unit
(** The worker side of the protocol: read [{"task": i}] frames off the
    input, write back [answer i] (which must carry ["task": i]) for each,
    and loop until [{"shutdown"}] or EOF. Raises [Failure], prefixed with
    [name], on a malformed stream or a task outside [0, tasks), so the
    supervisor sees a death, not silence. *)
