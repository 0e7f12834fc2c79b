(** The round-based execution engine.

    [Make (A)] interprets algorithm [A] under a schedule: each round, alive
    non-halted processes produce their round message ({!S.on_send}); the
    engine routes every copy according to the schedule's fate for that
    [(src, dst, round)] triple; crashes take effect (a process crashing in
    round [k] sends — subject to the schedule — but does not receive in round
    [k] and disappears afterwards); then surviving processes consume the
    envelopes arriving this round ({!S.on_receive}).

    One executor runs every simulation: the mutable {!Make.Arena}. The
    model checker steps it branch by branch and rewinds it with snapshots,
    fuzz campaigns step it round by round under a monitor, and {!Make.run}
    runs it to completion. A run's only per-round record is its
    {!Obs.Event.t} stream: {!Make.run} emits it into an enabled sink, and
    {!Obs.Replay} draws the space/time diagram from it. *)

open Kernel

type step_error = {
  algorithm : string;
  pid : Pid.t;
  round : Round.t;
  reason : string;
}
(** Everything a sweep or fuzz campaign needs to record a poisoned run:
    which algorithm, which process, in which round, and why. *)

exception Step_error of step_error
(** The {e only} exception the engine raises from inside a round, for two
    families of faults:

    - protocol violations the engine itself detects (an algorithm changing
      or retracting a decided value — decision stability);
    - any exception the algorithm's [on_send]/[on_receive] callbacks raise,
      rewrapped with the faulting process and round ([Stack_overflow] and
      [Out_of_memory] pass through untouched).

    Each round calls [on_send] from [p_n] down to [p_1], then [on_receive]
    from [p_1] up to [p_n], so when several callbacks would raise in one
    round the error names the first in that order: the highest-numbered
    raising sender, else the lowest-numbered raising receiver.

    Callers that run many schedules ({!Mc.Exhaustive}, fuzz campaigns)
    catch it and record a structured per-run outcome instead of letting one
    poisoned schedule kill the whole sweep. [Invalid_argument] remains
    reserved for caller misuse at API entry ({!Make.Arena.create} with
    missing proposals). *)

val pp_step_error : Format.formatter -> step_error -> unit

module Make (A : Algorithm.S) : sig
  (** The mutable round executor.

      Struct-of-arrays round state (status slab, state array, reusable
      envelope spine) with explicit branch-point snapshots, so a DFS over
      adversary choices mutates {e one} arena in place and rewinds it on
      backtrack, and a fuzz campaign rewinds one arena per process with
      {!reset}.

      Ownership: an arena (and everything loaned out of it — the probe
      fingerprint, inbox spines) belongs to one caller. Sharded sweeps
      create one arena per shard. *)
  module Arena : sig
    type t
    (** Mutable system state. Steps advance it in place; {!save} /
        {!restore} rewind it. *)

    val create : Config.t -> proposals:Value.t Pid.Map.t -> t
    (** Fresh arena at round 1; [proposals] must bind exactly [p1..pn]. *)

    val reset : t -> proposals:Value.t Pid.Map.t -> unit
    (** Back to round 1 with fresh initial states, as {!create} would
        build them, keeping the arena's buffers. Drops every snapshot.
        Valid on an arena left mid-round by a raising {!step}. *)

    val step : t -> Schedule.compiled_plan -> unit
    (** Execute one full round in place. Raises {!Step_error} if the
        algorithm violates decision stability (changes or retracts a
        decided value) or if one of its step callbacks raises; a raising
        step leaves the arena mid-round, and the caller must {!restore} a
        snapshot (or {!reset}) before using it again. Allocation-free on
        quiet rounds once the spine is built, and on single-sender-loss /
        single-receiver-loss rounds (the serial-adversary fault shapes)
        once their running set has been seen. *)

    val save : t -> unit
    (** Push a branch-point snapshot: two blits (status bytes, state
        words) plus four scalar stores into a preallocated, reused slot —
        cost independent of the subtree explored below it. *)

    val restore : t -> unit
    (** Rewind to the top snapshot, keeping it on the stack (one snapshot
        serves every sibling branch). Raises [Invalid_argument] if no
        snapshot is live. *)

    val drop : t -> unit
    (** Pop the top snapshot without rewinding (the arena is left wherever
        the last branch put it — the parent's own snapshot covers the
        residue). Raises [Invalid_argument] if no snapshot is live. *)

    val snapshots : t -> int
    (** Total {!save} calls over the arena's lifetime. *)

    val restores : t -> int
    (** Total {!restore} calls over the arena's lifetime. *)

    val next_round : t -> Round.t
    val all_halted : t -> bool

    val decisions : t -> Trace.decision list
    (** Chronological; within a round, ascending by pid. *)

    val crashed : t -> (Pid.t * Round.t) list

    val state_of : t -> Pid.t -> A.state option
    (** The local state of a process (its final one once it halted),
        unless it crashed. *)

    type fingerprint
    (** A canonical structural snapshot of the global state: per-process
        algorithm states (halted and crashed processes collapse to bare
        tags — their rounds are observable in no sweep verdict), the
        in-flight delayed messages in canonical key order, and the
        decisions recorded so far. Two states of the same sweep (same
        config and proposals) with structurally equal fingerprints at the
        same round are {e verdict-equivalent}: every suffix of adversary
        choices leads to traces with identical [Props.check] outcomes and
        identical global decision rounds. Polymorphic [(=)] and
        [Hashtbl.hash] are the intended equality and hash — this is what
        [Mc.Dedup] keys its transposition table on — and a
        {!probe_fingerprint} compares equal to the {!fingerprint} copy of
        the same state. *)

    val probe_fingerprint : t -> fingerprint
    (** The arena's reusable probe fingerprint, refreshed in place —
        allocation-free when no delayed messages are in flight. Valid only
        until the next arena mutation or [probe_fingerprint] call; use it
        for table lookups, never for storage. *)

    val fingerprint : t -> fingerprint
    (** An owned copy, safe to store in a table. *)

    val copy_fingerprint : fingerprint -> fingerprint
    (** Deep-copies the buffers a probe loans out (status bytes, state
        array); the late-message and decision lists are immutable and
        shared. *)

    val finish :
      ?max_rounds:int -> ?prof:Obs.Prof.acc -> schedule:Schedule.t -> t -> Trace.t
    (** Step with [schedule]'s remaining plans (empty past the horizon)
        until all processes halt or [max_rounds] rounds have executed
        (default {!default_max_rounds}), then package the trace. Leaves
        the arena at the end of the run; the caller rewinds via
        {!restore}. [prof], when given, records one
        {!Obs.Prof} interval per executed round.

        When the arena was advanced manually via {!step}, pass the
        schedule those plans came from (or an explicit [max_rounds]
        consistent with it) so the bound and [Trace.t.schedule] are
        right. *)
  end

  val run :
    ?sink:Obs.Sink.t ->
    ?max_rounds:int ->
    ?prof:Obs.Prof.acc ->
    Config.t ->
    proposals:Value.t Pid.Map.t ->
    Schedule.t ->
    Trace.t
  (** Run to completion on a fresh arena: {!Arena.finish} from round 1.
      The default bound is generous enough for every algorithm in this
      repository to terminate after the schedule's gst. [sink] (default
      {!Obs.Sink.noop}) receives the run's structured event stream —
      [Run_start] (with the schedule's declared omitters), then per round
      [Round_start], [Send] (with per-copy [Drop]/[Delay] fates) for each
      sender in ascending order, [Crash], and per receiver in ascending
      order its [Deliver]s, [Decide] and [Halt], and finally [Run_end].
      Event order is deterministic for a fixed config, proposals and
      schedule. Without an enabled sink the run takes the arena's
      allocation-free fast path. [prof] records one {!Obs.Prof} interval
      per executed round. *)
end

val default_max_rounds : Config.t -> Schedule.t -> int
(** The bound [run] uses when [max_rounds] is omitted. *)

val round_bound : Config.t -> horizon:int -> gst:int -> int
(** The same bound computed from a horizon and gst directly, for callers
    (the checker's DFS) that build plans round by round and have no
    {!Schedule.t} in hand: [default_max_rounds config s] equals
    [round_bound config ~horizon:(Schedule.horizon s)
    ~gst:(Round.to_int (Schedule.gst s))]. *)
