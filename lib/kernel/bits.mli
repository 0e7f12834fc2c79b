(** Word-level bit counting for {!Bitset}, whose sets are one immediate
    word while every pid is at most 62 and an array of words above.

    Both are branch-light: a 16-bit lookup table replaces the Kernighan
    clear-lowest-bit loop (whose cost grows with the population), so
    dense process sets — the common case once every process has sent —
    cost the same as sparse ones. *)

val popcount : int -> int
(** Number of set bits. Defined on every [int], including negative ones
    (all [Sys.int_size] bits are counted). *)

val ctz : int -> int
(** Index of the lowest set bit, counting from 0. [ctz 0] is
    [Sys.int_size]. *)
