(** Allocation/GC probes that fold into the {!Metrics} registry.

    A probe accumulator ({!acc}) is a plain mutable record of streaming
    moments over measured intervals: per-interval minor words
    (count/sum/sumsq/min/max) plus totals for major words, promoted words
    and collection counts. The intended wiring:

    - the caller creates one [acc] for the work it runs in process (work
      done in worker processes is not measured);
    - hot loops bracket each unit of work — an engine round, a fuzzed run
      — with {!measure};
    - {!flush} lands the result in the registry as
      [<prefix>.minor_words_per_<per>] (histogram) plus
      [<prefix>.{major_words,promoted_words,minor_collections,
      major_collections}] counters.

    Minor words are read from [Gc.minor_words] (the exact domain-local
    allocation pointer — [Gc.quick_stat]'s counters only refresh at
    collections on OCaml 5, which would make sub-collection intervals
    read zero); collection counts and major/promoted totals come from
    [quick_stat]. The probe itself allocates (a stat record and boxed
    floats per read); {!acc} calibrates that self-cost once at creation
    and {!measure} subtracts it from every interval, so an empty measured
    interval reads as (close to) zero minor words.

    The disabled path is an [option] at the call site:
    [match prof with None -> work () | Some a -> Prof.measure a work] —
    one immediate match, no allocation, mirroring {!Sink.enabled}. *)

type acc

val acc : unit -> acc
(** A fresh accumulator (calibrates the [Gc.quick_stat] self-cost). *)

val measure : acc -> (unit -> 'a) -> 'a
(** Run the thunk and record the interval's GC deltas. The interval is
    recorded even if the thunk raises (the exception is re-raised). *)

val intervals : acc -> int
(** Number of intervals recorded so far. *)

val flush :
  acc -> metrics:Metrics.t -> prefix:string -> per:string -> unit
(** Land the accumulated moments in the registry (get-or-create, so
    repeated sweeps accumulate):

    - histogram [<prefix>.minor_words_per_<per>] — one synthetic
      observation batch with the accumulator's count/sum/sumsq/min/max
      ({!Metrics.fold_samples});
    - counters [<prefix>.minor_collections], [<prefix>.major_collections],
      [<prefix>.major_words], [<prefix>.promoted_words] (word totals
      truncated to int).

    A no-op when no interval was recorded. *)
