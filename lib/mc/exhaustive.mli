(** The result algebra of sweeps over serial synchronous runs.

    For a deterministic algorithm and fixed proposals, the serial adversary's
    choices determine the run completely, so enumerating all choice
    sequences up to a horizon visits {e every} serial run prefix. A sweep
    reports the worst (and best) global decision round and every consensus
    violation found — e.g. [A_{t+2}] sweeps must show max = min = [t + 2]
    with zero violations, while FloodSet shows [t + 1].

    Sweeps run through {!Distrib}. This module holds what they fold with:
    the {!result} record, the per-run folds {!add_run} and {!add_crashed},
    and the joins {!merge} and {!combine}. The test suite's reference
    interpreter folds its own runs with the same functions, so a
    {!Distrib} result and an oracle result compare field by field. *)

open Kernel

type valency =
  | Undecided  (** no run decided *)
  | Univalent of Value.t  (** every run that decided, decided this value *)
  | Bivalent of Serial.choice list
      (** the path from the result's root to the deepest, then leftmost,
          node whose runs decide different values (a run deciding two
          values is such a node itself). Its length is the {e bivalence
          frontier}, [>= t - 1] for every consensus algorithm (Lemma 4).
          It covers the runs the sweep enumerates — serial round-based
          runs with faults within the horizon — and no others. *)

type crashed_run = {
  choices : Serial.choice list;
  error : Sim.Engine.step_error;
}
(** A schedule whose run raised {!Sim.Engine.Step_error}: the adversary
    choices to replay it, plus the structured error (algorithm, pid,
    round, reason). *)

type shard_failure = { shard : int; context : string; message : string }
(** A {!Distrib} task that raised something the engine did not contain
    (e.g. an exception escaping [Algorithm.init]). [shard] is the task's
    index in enumeration order and [context] describes the subproblem
    (first-round choice, proposal assignment or orbit) so the failure is
    reproducible. *)

type result = {
  runs : int;
      (** total runs the sweep accounts for — always equal to the unreduced
          enumeration count, whatever reduction computed it *)
  distinct_runs : int;
      (** leaves actually enumerated or simulated. Unreduced sweeps have
          [distinct_runs = runs]; a subtree answered from the {!Dedup}
          table counts into [runs] but not here, and a {!Symmetry} orbit
          counts only its representative here while scaling [runs] by the
          orbit size. The split keeps the reduction
          honest: aggregates speak for all [runs], work done is
          [distinct_runs]. *)
  max_decision : int;  (** worst global decision round over all runs *)
  min_decision : int;
  max_witness : Serial.choice list option;
  violations : (Serial.choice list * Sim.Props.violation list) list;
  undecided_runs : int;
      (** runs where some correct process never decided within the engine
          bound — must be 0 for every terminating algorithm *)
  crashed : crashed_run list;
      (** runs contained after a {!Sim.Engine.Step_error}; counted in
          [runs] but in no other aggregate. Like [violations], the list is
          the reverse of enumeration order, and every executor produces it
          bit-identically. *)
  shard_failures : shard_failure list;
      (** failed tasks, in task order; their subtrees' runs are not
          counted anywhere else. *)
  expired : bool;
      (** a wall-clock [deadline] passed mid-sweep: every count above is a
          faithful account of the {e explored} part of the space only.
          Graceful degradation for interactive sweeps — the CLI maps this
          to a distinct exit code. *)
  valency : valency;  (** of the result's root; crashed runs decide nothing *)
}

val empty : result
(** The unit of {!merge}: zero runs. *)

val frontier : result -> int
(** The bivalence frontier: the length of the [Bivalent] path, [-1] when
    the root is univalent or undecided. *)

exception Expired
(** Raised by a sweep's per-leaf deadline check once the wall clock passes
    the [deadline] argument. Drivers catch it, keep what they accounted so
    far and set [expired]. *)

val deadline_check : float option -> unit -> unit
(** [deadline_check deadline ()] raises {!Expired} when [deadline] is
    [Some d] and [Unix.gettimeofday () > d]; a no-op otherwise. *)

val run_valency : Sim.Trace.t -> valency
(** A run's own valency: [Bivalent []] if it decided two values. *)

val join_valency : siblings:bool -> valency -> valency -> valency
(** The valency {!merge} (two separate trees) or, with [siblings],
    {!combine} (two subtrees of one root) gives. *)

val merge : result -> result -> result
(** Aggregate two separate trees' results. Associative with unit {!empty};
    keeps the {e first} (left-most) maximal-round witness, so folding shard
    results in enumeration order reproduces exactly the single-sweep
    result, and the deeper (then first) bivalent valency, else the first
    decided one: two univalent trees never make a bivalent one. *)

val combine : result -> result -> result
(** [combine acc later] joins two sibling subtrees of one root (univalent
    on different values, they make it bivalent) in the depth-first
    search's list order: the search conses violations and crashed runs as
    it meets them, so its lists are the reverse of enumeration order and a
    {e later} sibling subtree's lists land in front of [acc]'s. Folding
    subtree fragments with [combine] in enumeration order reproduces the
    one-pass search exactly. *)

val add_run :
  result -> choices:(unit -> Serial.choice list) -> trace:Sim.Trace.t -> result
(** Fold one finished run into a result: checks {!Sim.Props}, updates the
    decision-round extremes and counts. [choices] is forced only when the
    run becomes a violation or the new maximal witness, so a clean leaf
    builds no choice list. The run joins [valency] as a child of the
    result's root, as in {!combine}; a caller folding deeper runs into
    one result sets [valency] itself. *)

val add_crashed :
  result ->
  choices:Serial.choice list ->
  error:Sim.Engine.step_error ->
  result
(** Fold one contained {!Sim.Engine.Step_error} run into a result. *)

val binary_assignments : Config.t -> Value.t Pid.Map.t list
(** All [2^n] binary proposal assignments, in the subset order a
    [Binary] {!Distrib} sweep takes them as tasks. *)

val pp_result : Format.formatter -> result -> unit
(** Prints [[-, -]] for the decision-round interval when no run decided. *)
