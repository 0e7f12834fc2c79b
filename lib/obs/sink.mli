(** Event sinks: where the engine (and the other instrumented layers) send
    their {!Event.t}s.

    The default sink is {!noop}, and the producers are written in guarded
    style:

    {[
      if Obs.Sink.enabled sink then
        Obs.Sink.emit sink (Obs.Event.Send { ... })
    ]}

    so that with tracing off the hot path performs one immediate boolean
    test and allocates nothing — the event constructor is never evaluated.
    The engine and the model checker's exhaustive search therefore pay no
    observable cost when untraced. *)

type t

val noop : t
(** Discards everything; {!enabled} is [false]. *)

val make : (Event.t -> unit) -> t
(** A sink from a callback. The callback must not raise. *)

val enabled : t -> bool
(** [false] exactly for {!noop} — the producer-side guard. *)

val emit : t -> Event.t -> unit
(** No-op on {!noop}. *)

val tee : t -> t -> t
(** Both sinks, in order; collapses to the other (or {!noop}) when either
    side is {!noop}. *)

val memory : unit -> t * (unit -> Event.t list)
(** A buffering sink and its drain: the closure returns every event emitted
    so far, in emission order. *)
