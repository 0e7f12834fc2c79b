(** Shared measurement helpers for the experiment modules. *)

open Kernel

val sync_worst_case :
  ?samples:int ->
  ?exhaustive_up_to_n:int ->
  seed:int ->
  entry:Registry.entry ->
  config:Config.t ->
  unit ->
  int
(** The worst global decision round observed over synchronous runs: the
    named deterministic cascades, [samples] random synchronous schedules
    (with and without crash-round delays), and — when [n] is at most
    [exhaustive_up_to_n] (default 4) — an exhaustive serial sweep. Raises
    [Failure] if any run violates a consensus property (these are all runs
    of the algorithm's own model, so violations are implementation bugs). *)

val decision_round_on :
  Registry.entry -> Config.t -> Sim.Schedule.t -> int option
(** Global decision round of one run with distinct proposals ([None] =
    nobody decided within the engine bound). *)

val standard_configs : (int * int) list
(** The (n, t) pairs the headline tables sweep: (3,1), (5,2), (7,3), (9,4). *)
