(** Dense process-id sets, for any [n].

    One abstract type whose layout follows from its members: an unboxed
    int while every member is at most [Sys.int_size - 1] (62 on 64-bit
    platforms), an int array otherwise. Two sets holding the same pids are
    structurally equal, so polymorphic [(=)], [compare], [Hashtbl.hash]
    and [Marshal] are meaningful on them at any [n] — which is what lets
    them sit inside {!Mc.Dedup} transposition-table keys and the engine's
    per-round fate fast path. Population counts and lowest-bit scans use
    the {!Bits} lookup-table helpers. Pids are 1-based. *)

type t

val empty : t
val is_empty : t -> bool

val add : int -> t -> t
(** [add p s] is [s] itself (physically) when [p] is already a member,
    so a pass that adds nothing new allocates nothing. Raises
    [Invalid_argument] when [p < 1]. *)

val mem : int -> t -> bool
(** Total: a pid below 1 is simply not a member. *)

val cardinal : t -> int
val equal : t -> t -> bool

val to_list : t -> int list
(** Ascending. *)

val of_pid_set : Pid.Set.t -> t
val pp : Format.formatter -> t -> unit
