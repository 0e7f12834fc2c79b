(** Experiment E1 — the headline table: worst-case global decision round in
    synchronous runs, per algorithm and resilience (Sections 1.4 and 3).

    Every {!Registry.all} entry that applies at a size is a row, so every
    registry prediction is checked against {!Measure.sync_worst_case}, the
    maximum of one exhaustive serial sweep (its limits are
    {!Measure}'s). Paper predictions: FloodSet, FloodSetWS, EarlyFS and
    FloodMin decide by [t+1] (the SCS optimum); every indulgent algorithm
    needs at least [t+2] (Proposition 1); [A_{t+2}], its variants and
    [A_{f+2}] achieve exactly [t+2]; Hurfin–Raynal and AMR hit [2t+2];
    CT-<>S and DLS hit [4t+4]. The "price of indulgence" is the [t+2] vs
    [t+1] gap; the payoff over prior indulgent algorithms is the [t+2] vs
    [2t+2] gap. *)

type row = {
  label : string;
  n : int;
  t : int;
  predicted : int;
  measured : int;
  indulgent : bool;
}

val measure : (int * int) list -> row list
(** One row per (config, applicable registry entry), in registry order.
    Raises [Failure] as {!Measure.sync_worst_case} does. *)

val run : Format.formatter -> unit
(** Print the table for {!Measure.standard_configs}. *)

val name : string
val title : string
