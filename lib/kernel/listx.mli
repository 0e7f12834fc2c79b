(** Small list helpers shared across the libraries. *)

val count : ('a -> bool) -> 'a list -> int
(** Number of elements satisfying the predicate. *)

val occurrences : compare:('a -> 'a -> int) -> 'a list -> ('a * int) list
(** Multiset view: distinct elements with their multiplicities, sorted by
    [compare]. *)

val most_frequent : compare:('a -> 'a -> int) -> 'a list -> ('a * int) option
(** The element with the highest multiplicity (least under [compare] on
    ties), or [None] on the empty list. *)

val all_equal : equal:('a -> 'a -> bool) -> 'a list -> bool
(** [true] on lists whose elements are pairwise equal (including [[]]). *)

val take : int -> 'a list -> 'a list
(** First [k] elements (all of them if the list is shorter). *)

val drop : int -> 'a list -> 'a list

val range : int -> int -> int list
(** [range lo hi] is [[lo; lo+1; ...; hi]]; empty when [lo > hi]. *)

val cartesian : 'a list -> 'b list -> ('a * 'b) list

val subsets : 'a list -> 'a list list
(** All [2^n] subsets, each preserving the original order. Intended for the
    model checker's small universes only. *)

val prefixes : 'a list -> 'a list list
(** [prefixes [a;b]] is [[[]; [a]; [a;b]]]. *)

val max_by : compare:('b -> 'b -> int) -> f:('a -> 'b) -> 'a list -> 'a option
(** Element maximising [f], or [None] on the empty list; earliest wins
    ties. *)
