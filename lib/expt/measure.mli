(** The one synchronous worst-case measurement of the experiment tables.

    Every bound a table prints over synchronous runs is one exhaustive
    sweep through the driver ({!Mc.Distrib}): distinct proposals, the
    crash menu, {!Mc.Serial.Prefixes} receiver sets, horizon [t + 2] and
    the {!Mc.Dedup} table, which reproduces the unreduced aggregates
    exactly. Such a sweep certifies its maximum for the runs it
    enumerates and no others: serial round-based runs with at most one
    crash per round, each crashing process's last message reaching a
    prefix of the survivors, every crash within [t + 2] rounds, and
    pairwise distinct proposals. Binary inputs, several crashes in one
    round and crash-round delays lie outside it; the test suite samples
    them against every registry prediction. *)

open Kernel

val sync_sweep : Sim.Algorithm.packed -> Config.t -> Mc.Exhaustive.result
(** The sweep itself. *)

val sync_worst_case : entry:Registry.entry -> config:Config.t -> int
(** The [max_decision] of {!sync_sweep}: the worst global decision round
    over every run the sweep enumerates. Raises [Failure] — one line
    naming the entry, the size and what went wrong — if a run violates a
    consensus property, termination included (the message gives its
    choice list), if a run crashes, or if a shard fails: a cell that
    checked less than it reports prints no number. *)

val standard_configs : (int * int) list
(** The (n, t) pairs the headline tables sweep: (3,1), (4,1), (5,2),
    (7,3). *)
