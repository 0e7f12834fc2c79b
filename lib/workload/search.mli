(** Worst-case search: drive an algorithm over a family of schedules and
    keep the run with the latest global decision, checking validity,
    agreement and termination along the way. One serial fold; the
    exhaustive and parallel searches are {!Mc.Distrib}'s. *)

open Kernel

type outcome = {
  worst_round : int;  (** latest global decision round observed *)
  worst_schedule : Sim.Schedule.t option;
      (** the first schedule attaining [worst_round] *)
  runs : int;
  violations : (Sim.Schedule.t * Sim.Props.violation list) list;
      (** schedules whose runs broke a consensus property, newest first *)
}

val over :
  algo:Sim.Algorithm.packed ->
  config:Config.t ->
  proposals:Value.t Pid.Map.t ->
  Sim.Schedule.t Seq.t ->
  outcome
(** Run every schedule in the (finite) sequence, in order. *)

val random_es :
  ?samples:int ->
  ?gst:int ->
  seed:int ->
  algo:Sim.Algorithm.packed ->
  config:Config.t ->
  proposals:Value.t Pid.Map.t ->
  unit ->
  outcome
(** {!over} on random eventually-synchronous schedules (default gst 4). *)
