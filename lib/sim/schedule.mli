(** Schedules: the adversary's complete description of one run.

    A schedule fixes, for every round, which processes crash and what happens
    to every message sent in that round (delivered in the same round, delayed
    until a later round, or lost). Together with the processes' proposal
    values it determines a run of a deterministic algorithm completely, which
    is what makes the engine, the property tests and the model checker
    reproducible.

    Rounds beyond the {!horizon} are implicitly failure-free and synchronous:
    every remaining message is delivered in its send round. A finite schedule
    therefore describes an infinite run, matching the model's requirement
    that asynchrony and crashes are finite phenomena.

    {!validate} checks the schedule against every constraint of Section 1.2
    for the chosen model (SCS or ES); generators in [Workload] produce valid
    schedules by construction, and the property tests check that. The named
    runs of the lower bound are lists of {!crash} and {!delay} rounds. *)

open Kernel

type fate =
  | Same_round  (** delivered in the round it was sent *)
  | Delayed_until of Round.t  (** received in a strictly later round *)
  | Lost  (** never received *)

type plan = {
  crashes : Pid.t list;
      (** processes crashing in this round; they send their round message
          (subject to [lost]/[delayed] below) but do not complete the round
          and take no further part in the run. A victim all of whose messages
          are [lost] crashed "before sending". *)
  lost : (Pid.t * Pid.t) list;
      (** [(src, dst)]: the message sent by [src] in this round to [dst] is
          lost. *)
  delayed : (Pid.t * Pid.t * Round.t) list;
      (** [(src, dst, r)]: the message sent by [src] in this round to [dst]
          is received in round [r]. *)
}

val empty_plan : plan

(** {1 The two disrupted rounds}

    Every named run of the lower-bound argument — the chain of Claim 5.1,
    the five runs of Fig. 1, the witness, every serial run — is built from
    two kinds of round: a crash whose last message only some processes
    hear, and a live process whose messages arrive late. Both constructors
    list their entries in ascending destination order, so the codec and
    the diagram legend print them in that order. *)

val crash : n:int -> heard_by:Pid.Set.t -> Pid.t -> plan
(** [crash ~n ~heard_by victim]: [victim] crashes in this round and its
    round message reaches exactly the processes of [heard_by]; every other
    copy is lost. An empty [heard_by] is a crash before sending. *)

val delay : n:int -> except:Pid.Set.t -> Pid.t -> until:Round.t -> plan
(** [delay ~n ~except src ~until]: [src] stays alive, and its round message
    reaches every other process outside [except] only in round [until]
    (the processes of [except] receive it in-round). Legal in ES before gst,
    the false suspicion that indulgence must forgive. *)

type t

val make :
  ?omitters:(Pid.t * Model.omission) list ->
  ?budget:Model.budget ->
  model:Model.t ->
  gst:Round.t ->
  plan list ->
  t
(** [make ~model ~gst plans] is the schedule whose round [k] follows
    [List.nth plans (k-1)] (and {!empty_plan} past the end). [gst] is the
    round [K] of eventual synchrony; it must be 1 for SCS.

    [omitters] declares the run's omission-faulty processes and their
    class; a declaration {e licenses} [lost] entries on the faulty side
    (outgoing for {!Model.Send_omit}, incoming for {!Model.Recv_omit}) in
    any round without breaking synchrony — the plans still spell out
    exactly which messages drop, so the engine needs no new machinery.
    Duplicate declarations for a pid keep the last one. [budget] is the
    optional explicit adversary budget [(t_crash, t_omit)] checked by
    {!validate}; without it the soundness rule falls back to
    [|crashed ∪ omitters| <= t]. *)

val model : t -> Model.t

val gst : t -> Round.t
(** The round [K] from which eventual synchrony holds. *)

val effective_gst : t -> Round.t
(** The {e minimal} round [K] such that every round [k >= K] satisfies the
    synchrony clauses (only messages sent in their sender's crash round, or
    dropped by a declared omitter, may be lost; only crash-round messages
    may be delayed). A schedule may declare a larger {!gst} than it uses;
    the run's synchrony class is defined by this minimal value. *)

val synchronous : t -> bool
(** [effective_gst s = 1]: the paper's definition of a synchronous run. *)

val synchronous_after : t -> Round.t -> bool
(** [synchronous_after s k]: the run is synchronous after round [k]
    (Section 6), i.e. [effective_gst s <= k + 1]. *)

val horizon : t -> int
(** Number of rounds with an explicit plan. *)

val plan_at : t -> Round.t -> plan

val plans : t -> plan list

val crash_round : t -> Pid.t -> Round.t option
(** The round in which a process crashes, if it is faulty. *)

val faulty : t -> Pid.Set.t
(** Crash victims only; omitters are reported by {!omitter_set}. *)

val crash_count : t -> int

val omitters : t -> (Pid.t * Model.omission) list
(** Declared omission-faulty processes, ascending by pid. *)

val omitter_class : t -> Pid.t -> Model.omission option
val omitter_set : t -> Pid.Set.t
val send_omitters : t -> Pid.Set.t
val recv_omitters : t -> Pid.Set.t
val omit_count : t -> int

val budget : t -> Model.budget option
(** The explicit adversary budget, when one was declared at {!make}. *)

val omission_justified : t -> src:Pid.t -> dst:Pid.t -> bool
(** The message [src -> dst] sits on the faulty side of a declared
    omitter: [src] is a send-omitter or [dst] is a receive-omitter. Such
    losses are legal in every round of every model and do not count
    against {!effective_gst}. *)

val crashes_after : t -> Round.t -> int
(** Number of crashes occurring in rounds strictly greater than the given
    round — the [f] of the fast-eventual-decision property (Section 6). *)

val fate : t -> src:Pid.t -> dst:Pid.t -> round:Round.t -> fate
(** What happens to the message sent by [src] to [dst] in [round] (assuming
    [src] is alive to send it). *)

type compiled_fates =
  | Quiet  (** no losses or delays: every fate is [Same_round] *)
  | Single_lost of { sl_src : int; sl_dsts : Kernel.Bitset.t }
      (** one sender's messages lost to a destination set, nothing
          delayed — the shape of every serial-adversary crash and
          send-omission plan *)
  | Single_dst of { sd_dst : int; sd_srcs : Kernel.Bitset.t }
      (** one receiver loses messages from a source set, nothing
          delayed — the shape of every serial-adversary receive-omission
          plan *)
  | Table of fate array
      (** general case, indexed by [(src - 1) * n + (dst - 1)] *)

type compiled_plan
(** A {!plan} precompiled into an O(1) per-[(src, dst)] fate lookup — the
    engine routes [n * n] copies per round, so the checker hot path must
    not scan [plan.lost]/[plan.delayed] lists per copy. Quiet plans (no
    losses or delays — the overwhelmingly common case in sweeps) compile
    to a zero-allocation representation. *)

val compile_plan : n:int -> plan -> compiled_plan
(** Compile one round plan for an [n]-process system. O(n^2) once in the
    general case, O(1) per {!compiled_fate} query afterwards; O(1) and
    allocation-free for quiet plans, and O(lost) — no [n * n] table — for
    plans whose only disruptions are one sender's messages being lost
    (every serial-adversary crash and send-omission plan has this shape:
    the victim's round-[k] messages miss a subset of the survivors) or
    one receiver's messages being lost (every serial-adversary
    receive-omission plan). *)

val compiled_empty_plan : compiled_plan
(** {!empty_plan}, compiled; valid for any [n]. *)

val compiled_source : compiled_plan -> plan
(** The plan it was compiled from (crash list, original fate lists). *)

val compiled_fates : compiled_plan -> compiled_fates
(** The stored compiled shape, returned without allocating — the arena
    engine's round dispatch matches on this directly so the quiet path
    stays allocation-free. *)

val compiled_fate : compiled_plan -> src:Pid.t -> dst:Pid.t -> fate
(** O(1). Only meaningful for [src <> dst] with both in [p1..pn] — the
    engine never consults the fate of a self-delivery. *)

val failure_free_synchronous : t -> bool

val validate : Config.t -> t -> (unit, string) result
(** Checks every model constraint:
    - crash-stop: each victim crashes at most once, at most [t] crashes, and
      no fate references a {e sender} already crashed in an earlier round
      (entries towards an already-crashed receiver are moot and tolerated);
    - self-delivery: a process always receives its own message in the same
      round (assumption 2 of Section 3: no process ever suspects itself);
    - reliable channels: a message is [Lost] only when its sender is faulty,
      and (for ES) only in the sender's crash round or before [gst]; in SCS
      only in the sender's crash round; in every model a loss is also legal
      when justified by a declared omitter ({!omission_justified});
    - adversary budget: with an explicit budget, [t_crash + t_omit <= t],
      at most [t_crash] crashes and at most [t_omit] omitters; without
      one, at most [t] distinct faulty processes (crashed or omitting);
    - t-resilience is not demanded {e of} omitter receivers (a starved
      receive-omitter stays inside the model);
    - eventual synchrony: from round [gst] on, only messages sent in their
      sender's crash round may be delayed ([Delayed_until]) — footnote 5; in
      SCS nothing is ever delayed;
    - delays go strictly forward in time;
    - t-resilience (ES): every process alive at the end of round [k] receives
      round-[k] messages from at least [n - t] processes;
    - bounds: every pid in [1..n], [Delayed_until] targets within sanity
      bounds. *)

val validate_exn : Config.t -> t -> unit
(** Like {!validate} but raises [Invalid_argument]. *)

val pp : Format.formatter -> t -> unit
(** Compact human-readable rendering (used in counterexample reports). *)
