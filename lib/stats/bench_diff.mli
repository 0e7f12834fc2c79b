(** Bench-trajectory regression detection.

    Compares two bench artifacts ([BENCH_<date>.json], or the committed
    [bench/BASELINE.json]) row by row and flags regressions. Rows are
    matched on [(suite, name)]; rows present in only one artifact are
    listed, never treated as regressions — adding or retiring a workload
    must not fail the gate.

    A {e time} regression requires both a relative and an absolute
    signal: [new/old > threshold] {b and}
    [new - old > noise_sigma * max(stddev_old, stddev_new)] — micro
    rows in the hundreds of nanoseconds jitter far past any reasonable
    ratio, and the stddev guard keeps them from tripping the gate.
    An {e alloc} regression ([minor_words] ratio) only fires when both
    sides report at least [min_words] words: allocation counts are
    deterministic, but tiny rows ratio wildly on a few boxed floats.
    Old artifacts without alloc columns simply have no alloc verdicts.

    Rows carrying [speedup_vs_none] (the reduced sweeps, measured against
    their unreduced sibling in the same artifact) get one more verdict:
    a row whose reduction was a win ([>= 1x]) in the old artifact must
    still be one in the new. The ratio itself is allowed to compress —
    speeding up the shared checker core legitimately shrinks every
    reduction's edge — but a reduction inverting into a pessimisation
    regresses the diff even when the row's absolute time improved. The
    inversion must clear [threshold] ([new * threshold < 1]), shielding
    overhead-style rows that sit at ~1x by design from boundary noise. *)

type entry = {
  e_name : string;
  e_mean_s : float;
  e_stddev_s : float;
  e_minor_words : float option;  (** mean minor words per run, if recorded *)
  e_speedup : float option;  (** [speedup_vs_none], reduced rows only *)
}

type artifact = {
  a_date : string option;
  a_suites : (string * entry list) list;  (** in artifact order *)
}

type row = {
  suite : string;
  name : string;
  old_mean_s : float;
  new_mean_s : float;
  time_ratio : float;  (** [new/old]; [nan] when [old] is [0] *)
  old_stddev_s : float;
  new_stddev_s : float;
  old_minor_words : float option;
  new_minor_words : float option;
  alloc_ratio : float option;  (** only when both sides report words *)
  old_speedup : float option;
  new_speedup : float option;
  time_regressed : bool;
  alloc_regressed : bool;
  speedup_lost : bool;
      (** old speedup [>= 1x] but new clearly below [1x] (past [threshold]) *)
}

type report = {
  rows : row list;  (** matched rows, in new-artifact order *)
  only_old : string list;  (** ["suite/name"] rows dropped in [new] *)
  only_new : string list;  (** ["suite/name"] rows absent from [old] *)
  threshold : float;
  alloc_threshold : float;
}

val artifact_of_json : Obs.Json.t -> (artifact, string) result
(** Reads either artifact generation: rows need [name], [mean_s] and
    [stddev_s]; [minor_words] is optional ([null] or absent in
    pre-profiling artifacts). *)

val artifact_of_string : string -> (artifact, string) result

val diff :
  ?threshold:float ->
  ?alloc_threshold:float ->
  ?noise_sigma:float ->
  ?min_words:float ->
  old_:artifact ->
  new_:artifact ->
  unit ->
  report
(** Defaults: [threshold = 1.25], [alloc_threshold = 1.10],
    [noise_sigma = 2.0], [min_words = 1000.]. *)

val regressions : report -> row list
(** The rows with either verdict set — nonempty means the gate fails. *)

val pp : Format.formatter -> report -> unit
(** Per-row delta table (time, ratio, alloc ratio, verdict) followed by
    only-old/only-new notes and a one-line summary: the regression count
    over the matched rows, or, when no row matched, that no row was
    compared. *)

val to_json : report -> Obs.Json.t
