(** Greedy fixpoint minimization of failing schedules.

    Starting from any schedule whose {!Harness} outcome is a failure, the
    shrinker repeatedly tries one-step reductions, in this order: empty a
    whole round (latest first, so the horizon drops); then the removal
    edits of {!Workload.Mutate.drops}, the mutator's own — remove one
    crash together with the same-round fate entries it justified, one
    omitter declaration together with the lost entries it licensed, one
    lost entry, one delayed entry — each with trailing empty rounds
    trimmed; then pull gst one round earlier. It keeps the first reduction
    whose result still passes {!Sim.Schedule.validate} {e and} still
    fails with the {e same} {!Outcome.failure} class, until none applies.

    The result is therefore 1-minimal modulo model validity: no single
    remaining round, crash, omitter, fate entry or gst step can be
    removed without losing the violation or leaving the model. That is the strongest
    guarantee a greedy pass can give, and it is what turns a horizon-12,
    5-crash fuzz hit into evidence a human can read. *)

open Kernel

type report = {
  schedule : Sim.Schedule.t;  (** the 1-minimal schedule *)
  failure : Outcome.failure;  (** the preserved failure class *)
  steps : int;  (** accepted reductions *)
  attempts : int;  (** candidate runs tried (accepted + rejected) *)
}

val shrink :
  ?fuel:int ->
  ?max_steps:int ->
  algo:Sim.Algorithm.packed ->
  config:Config.t ->
  proposals:Value.t Pid.Map.t ->
  Sim.Schedule.t ->
  report option
(** [None] when the input schedule does not fail at all. [fuel] (default:
    the engine bound for the {e input} schedule) is held fixed across all
    candidate runs so a [Fuel]-class failure cannot vanish just because a
    shorter horizon lowered the default bound. [max_steps] (default
    unlimited) caps accepted reductions for callers on a budget — the
    1-minimality guarantee only holds when it is not hit. *)
