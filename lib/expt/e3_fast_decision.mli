(** Experiment E3 — Fig. 2's fast-decision property: in {e every}
    synchronous run of [A_{t+2}], every process that decides does so by
    round [t + 2] (Lemma 13), independently of the underlying consensus
    module [C].

    Each row is one exhaustive serial sweep ({!Measure.sync_sweep}, with
    the limits {!Measure} states) of [A_{t+2}], of [A_{t+2}] with [C]
    padded by 40 idle rounds, and of [A<>S]: the padding must not move a
    single synchronous decision. [safe] means no run violated a consensus
    property, crashed or stayed undecided. The sweeps also confirm the
    decision round is {e exactly} [t + 2] — min = max — since the
    algorithm never decides earlier without the Fig. 4 optimization, so
    the bound is tight run by run, not just in the worst case. *)

type row = {
  variant : string;
  n : int;
  t : int;
  min_decision : int;
  max_decision : int;
  runs : int;
  safe : bool;
}

val measure : (int * int) list -> row list
val run : Format.formatter -> unit
val name : string
val title : string
