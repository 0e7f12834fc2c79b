(** The reproduction certificate: one call that re-checks every headline
    claim of the paper against freshly-run simulations and reports a
    pass/fail checklist. [ipi verify] exposes it on the command line; the
    test suite runs it too. The E1–E3 claims rest on exhaustive sweeps at
    {!Measure.standard_configs}; the others on witnesses and seeded
    samples. All checks are deterministic. *)

type check = { claim : string; ok : bool }
(** A measurement that raised [Failure] is a failed check whose [claim]
    ends with the message. *)

val run : unit -> check list
val all_ok : check list -> bool

val print : Format.formatter -> check list -> bool
(** Pretty-print the checklist; returns {!all_ok}. *)
