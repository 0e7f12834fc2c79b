(** A registry of named counters, gauges and histograms.

    The registry is the mutable side of the observability layer: producers
    (engine sinks, the model checker, the workload search, the bench
    harness) bump instruments; consumers render the whole registry as a
    text dump ({!pp}) or JSON ({!to_json} — the serializer behind
    [BENCH_*.json] and [ipi run --metrics]).

    Instruments are created on first use ({!counter} etc. are
    get-or-create) and rendered in creation order. Names are free-form;
    the convention in this repository is [<layer>.<what>], e.g.
    [sim.messages_delivered] or [mc.runs]. *)

type t

type counter
(** Monotonically increasing integer. *)

type gauge
(** A last-write-wins integer, unset until first {!set}. *)

type histogram
(** Streaming summary of float observations: count, mean, stddev, min,
    max (no buckets — the consumers here want moments, not quantiles). *)

val create : unit -> t

val counter : t -> string -> counter
val incr : ?by:int -> counter -> unit

val gauge : t -> string -> gauge
val set : gauge -> int -> unit
val gauge_value : gauge -> int option

val histogram : t -> string -> histogram
val observe : histogram -> float -> unit

val fold_samples :
  histogram ->
  count:int ->
  sum:float ->
  sumsq:float ->
  min:float ->
  max:float ->
  unit
(** Merge a pre-aggregated batch of observations into the histogram in one
    step, as if each underlying sample had been {!observe}d individually.
    This is how per-domain accumulators ({!Prof}) land in a shared registry
    without the registry ever being touched from a worker domain. A
    [count] of [0] is a no-op (the [min]/[max] arguments are ignored);
    negative counts raise [Invalid_argument]. *)

type summary = {
  count : int;
  mean : float;
  stddev : float;  (** population standard deviation; 0 for count <= 1 *)
  min : float;
  max : float;
}

val summary : histogram -> summary option
(** [None] before the first observation. *)

val find_counter : t -> string -> int option
(** Read-only lookup (does not create). *)

val find_gauge : t -> string -> int option

val find_histogram : t -> string -> summary option
(** Read-only lookup (does not create): the histogram's {!summary}, [None]
    if no histogram of that name exists or it has no observations yet. *)

val pp : Format.formatter -> t -> unit
(** One instrument per line, creation order. *)

val to_json : t -> Json.t
(** [{"counters": {...}, "gauges": {...}, "histograms": {...}}]. *)

val counting_sink : t -> Sink.t
(** A sink that folds run events into the registry:

    - counters [sim.runs], [sim.rounds], [sim.broadcasts],
      [sim.messages_sent] (point-to-point copies), [sim.messages_delivered],
      [sim.messages_dropped], [sim.messages_delayed], [sim.bytes_sent],
      [sim.crashes], [sim.decisions], [sim.halts], [sim.fd_outputs];
    - gauges [sim.first_decision_round] (min over the run) and
      [sim.global_decision_round] (max);
    - histogram [sim.rounds_per_run] observed at each [Run_end]. *)
