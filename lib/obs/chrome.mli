(** Chrome [trace_event] export, viewable in Perfetto / [chrome://tracing].

    The mapping treats the run as one "process" and each simulated process
    [p_i] as a thread: every round a process participates in (it sent its
    round message) becomes a 1 ms complete slice on its track, and crashes,
    decisions and halts become instant events on the same track. Round [k]
    occupies the window [[(k-1) ms, k ms)], so the synchronized-rounds
    structure of a run is directly visible as aligned slices.

    Use [ipi run --trace out.json --trace-format chrome] and open the file
    with https://ui.perfetto.dev. *)

val to_json : Event.t list -> Json.t
(** The [{"traceEvents": [...], "displayTimeUnit": "ms"}] envelope. *)

val to_string : Event.t list -> string

val of_spans : Span.record list -> Json.t
(** Profiling spans as complete ("X") duration slices on one Chrome
    thread named "main", with CPU and GC deltas in [args]. Spans live on
    their own Chrome pid so they compose with the event export.
    Zero-length spans are widened to 1 µs so every span stays visible. *)

val spans_to_string : Span.record list -> string
