(** Experiment E2 — the lower bound (Section 2, Fig. 1), mechanised.

    The reproduction follows the proof's own structure:

    + {e Lemma 3}: a bivalent initial configuration exists (the model
      checker finds one for each algorithm);
    + {e Lemma 4}: a bivalent [(t-1)]-round serial partial run exists — the
      {!Mc.Exhaustive.frontier} of a sweep is exactly [t - 1] at every row;
    + every [t]-round serial partial run is univalent, and exhaustive sweeps
      confirm FloodSetWS globally decides at [t + 1] in {e every} serial
      run — the premise of Lemma 2;
    + the contradiction: the proof-guided ES schedule
      ({!Mc.Attack.witness_schedule}) is indistinguishable, for the deciding
      processes, from two different synchronous runs, and FloodSetWS
      violates uniform agreement on it — while [A_{t+2}], which waits the
      one extra round, survives the same schedule.

    Together these show executably why [t + 1]-round indulgent consensus is
    impossible and the price of indulgence is one round. *)

type row = {
  n : int;
  t : int;
  fast_decides_at : int;  (** {!Measure.sync_worst_case} of FloodSetWS *)
  frontier : int;  (** FloodSetWS's, from proposals [(0, 1, ..., 1)] *)
  attack_violations : int;  (** agreement violations under the witness *)
  at2_survives : bool;  (** A_{t+2} safe under the same witness *)
}

val measure : (int * int) list -> row list
val run : Format.formatter -> unit
val name : string
val title : string
