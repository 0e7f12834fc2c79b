(** The outcome of one simulated run: who decided what and when, who
    crashed, and how the run ended. What happened round by round — sends,
    fates, deliveries — is the run's {!Obs.Event.t} stream, which
    {!Obs.Replay} draws. *)

open Kernel

type decision = { pid : Pid.t; round : Round.t; value : Value.t }

type t = {
  algorithm : string;
  config : Config.t;
  proposals : Value.t Pid.Map.t;
  schedule : Schedule.t;
  decisions : decision list;  (** in deciding order, one per process *)
  crashes : (Pid.t * Round.t) list;
  rounds_executed : int;
  all_halted : bool;
      (** every non-crashed process returned before [rounds_executed] ran
          out; [false] means the run hit the round bound *)
}

val decision_of : t -> Pid.t -> decision option
val decided_values : t -> Value.t list

val global_decision_round : t -> Round.t option
(** Section 1.3: the run achieves a global decision at round [k] when every
    process that ever decides does so at round [<= k] and some process
    decides at [k]; i.e. the maximum decision round. [None] when nobody
    decided. *)

val first_decision_round : t -> Round.t option

val correct : t -> Pid.t list
(** Processes that are fault-free in this run: they never crash and are
    not declared omission-faulty in the schedule. *)

val pp_summary : Format.formatter -> t -> unit
