(** Mutation-based schedule generators for fuzz campaigns.

    Where {!Random_runs} draws fresh schedules from scratch, this module
    perturbs an existing one: add, move or drop a crash, flip a lost message
    into a delayed one (or back), add or drop individual fate entries, shift
    the gst, declare or retire an omission-faulty process, or drop one more
    message an omitter declaration licenses. Mutating a known-interesting seed schedule (a near-violation, a
    previously shrunk counterexample) explores its neighbourhood much more
    densely than independent sampling can.

    Operators edit the plan list blindly and {!mutate} re-validates the
    result with {!Sim.Schedule.validate}, retrying with a fresh operator
    draw on failure — the validator stays the single source of truth for
    model legality. The four removal operators are {!drops}, which
    {!Fuzz.Shrink} tries one by one, so mutating and shrinking share one
    set of removal edits. All randomness comes from the caller's
    {!Kernel.Rng.t}, so campaigns remain reproducible from one seed. *)

open Kernel

type op =
  | Add_crash  (** crash a currently-correct process in a random round *)
  | Drop_crash  (** remove a crash and its same-round fate entries *)
  | Move_crash  (** move a crash to a different round (entries dropped) *)
  | Flip_fate  (** turn one lost message into a delayed one, or back *)
  | Drop_loss
  | Drop_delay
  | Add_delay
  | Add_loss  (** lose one more message of a crashing sender *)
  | Shift_gst  (** move gst one round earlier or later *)
  | Add_omitter
      (** declare a correct process a send- or receive-omitter (kept only
          when the schedule's budget — or [t] — admits it) *)
  | Drop_omitter  (** retire a declaration and the losses it licensed *)
  | Add_omit_loss  (** lose one more message a declaration licenses *)

val all_ops : op list
val pp_op : Format.formatter -> op -> unit

val drops : op -> Sim.Schedule.t -> Sim.Schedule.t list
(** The removal edits, one result per entry the operator can remove, in
    plan order: [Drop_crash] removes one crash (round by round, in each
    round's crash order) together with its same-round fate entries;
    [Drop_omitter] retires one declaration (ascending by pid) together
    with every lost entry it licensed; [Drop_loss] and [Drop_delay]
    remove one lost or delayed entry. Every other operator gives [[]].
    {!apply_op} draws one of these results, and {!Fuzz.Shrink} tries them
    all, so the mutator and the shrinker share one set of removals. The
    results are {e not} validated. *)

val apply_op :
  Rng.t -> Config.t -> op -> Sim.Schedule.t -> Sim.Schedule.t option
(** One blind application of the operator; [None] when the operator does
    not apply (e.g. [Drop_crash] on a crash-free schedule). The result is
    {e not} validated. *)

val mutate : ?tries:int -> Rng.t -> Config.t -> Sim.Schedule.t -> Sim.Schedule.t
(** Draw operators until one yields a schedule accepted by
    {!Sim.Schedule.validate} (at most [tries] draws, default 16); returns
    the input schedule unchanged when every draw fails, so the result is
    always valid if the input was. *)

val generator :
  ?ops_per_run:int -> base:Sim.Schedule.t -> Config.t -> Rng.t -> Sim.Schedule.t
(** A {!Random_runs}-style generator: applies 1 to [ops_per_run] (default 3)
    successful mutations to [base]. *)
