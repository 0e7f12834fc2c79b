(** JSON Lines export and import of event streams.

    One {!Event.t} per line, encoded with {!Event.to_json}. The format is
    append-friendly, diffable (a fixed config + seed + schedule produces a
    byte-identical log — the determinism the test suite asserts) and
    greppable. [ipi run --trace] writes it; [ipi trace] reads it back. *)

val line : Event.t -> string
(** One compact JSON object, no trailing newline. *)

val to_string : Event.t list -> string
(** Newline-terminated lines, in order. *)

val to_channel : out_channel -> Event.t list -> unit

val parse : string -> (Event.t list, string) result
(** Parse a whole log. Blank lines and [#]-prefixed comment lines are
    skipped; errors name the offending line number. *)
