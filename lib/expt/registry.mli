(** Every algorithm in the repository, packed with the complexity the paper
    predicts for it. The experiment tables iterate over this list. *)

open Kernel

type regime =
  | Indulgent  (** requires 0 < t < n/2 *)
  | Third  (** requires t < n/3 *)
  | Any_t  (** any t < n *)

type entry = {
  label : string;  (** short name used in tables *)
  algo : Sim.Algorithm.packed;
  model : Sim.Model.t;
  regime : regime;
  indulgent : bool;
      (** tolerates unreliable failure detection: safe and live in every ES
          run (within its regime) *)
  sync_worst_case : Config.t -> int;
      (** the paper's predicted worst-case global decision round over
          synchronous runs *)
  reference : string;  (** where the algorithm comes from *)
}

val all : entry list
val find : string -> entry option
val applicable : entry -> Config.t -> bool

val pp_regime : Format.formatter -> regime -> unit
(** The resilience condition a regime requires, e.g. [t < n/3]. *)

val floodset : entry
val floodset_ws : entry
val early_floodset : entry
val floodmin : entry
val at_plus_2 : entry
val at_plus_2_opt : entry
val at_plus_2_slow : entry
val a_diamond_s : entry
val hurfin_raynal : entry
val ct_diamond_s : entry
val amr : entry
val af_plus_2 : entry
val dls : entry
