(** Aggregates over integer samples (decision rounds, message counts), and
    the message and byte totals of runs counted through
    {!Obs.Metrics.counting_sink}. *)

type t = { count : int; min : int; max : int; mean : float }

val of_list : int list -> t option
(** [None] on the empty list. *)

val pp : Format.formatter -> t -> unit

val messages_of_metrics : Obs.Metrics.t -> int option
(** The [sim.messages_sent] counter of a registry fed by
    {!Obs.Metrics.counting_sink}: the point-to-point copies sent, [n] per
    sender per round it participates in. *)

val bytes_of_metrics : Obs.Metrics.t -> int option
(** The [sim.bytes_sent] counter, ditto: estimated bytes on the wire
    (headers plus per-algorithm {!Sim.Algorithm.S.wire_size} payload
    estimates). *)
