(** Hierarchical timed spans: the profiling counterpart of {!Sink}.

    A span covers one dynamic extent — a sweep, a shard, a single run —
    and records where wall clock, CPU time and allocations went while it
    was open. Spans nest: {!enter} pushes onto a per-recorder stack,
    {!exit} pops and appends a completed {!record}. The recorder follows
    the same two-state discipline as {!Sink.t}:

    {[
      if Obs.Span.enabled spans then ... Obs.Span.enter spans "run" ...
    ]}

    With the {!disabled} recorder every operation is an immediate match on
    an immutable constructor — no clock read, no [Gc.quick_stat], no
    allocation — so instrumented hot paths cost nothing when profiling is
    off.

    A recorder belongs to one process and one timeline: work done in
    worker processes is not recorded. Completed records export to Chrome
    [trace_event] JSON via {!Chrome.of_spans} or line-by-line via
    {!record_to_json}. *)

type record = {
  label : string;
  depth : int;  (** Nesting depth at [enter]: 0 for an outermost span. *)
  start_us : int;  (** Wall-clock microseconds since the recorder's creation. *)
  dur_us : int;  (** Wall-clock duration in microseconds. *)
  cpu_us : int;  (** [Sys.time] delta in microseconds (per-process CPU). *)
  minor_words : float;
  major_words : float;
  promoted_words : float;
  minor_collections : int;
  major_collections : int;
}
(** One completed span. GC fields are [Gc.quick_stat] deltas between
    {!enter} and {!exit}. *)

type t

val disabled : t
(** Ignores everything; {!enabled} is [false]. *)

val enabled : t -> bool
(** [false] exactly for {!disabled} — the producer-side guard. *)

val recorder : unit -> t
(** A live recorder; [start_us] counts from its creation. *)

val enter : t -> string -> unit
(** Open a span. No-op on {!disabled}. *)

val exit : t -> unit
(** Close the innermost open span and append its {!record}. No-op on
    {!disabled}; raises [Invalid_argument] if no span is open. *)

val with_ : t -> string -> (unit -> 'a) -> 'a
(** [with_ t label f] brackets [f ()] in {!enter}/{!exit}, closing the
    span even if [f] raises. On {!disabled} it is a tail call to [f]. *)

val records : t -> record list
(** Completed records in completion order (children before parents).
    [[]] on {!disabled}. Open spans are not included. *)

val record_to_json : record -> Json.t
(** A flat object with every field, for JSONL trace output. *)
