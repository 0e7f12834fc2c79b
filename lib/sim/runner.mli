(** Convenience entry points for running algorithms packed as first-class
    modules (the form the registry, experiments and benchmarks use). *)

open Kernel

val run :
  ?sink:Obs.Sink.t ->
  ?max_rounds:int ->
  ?prof:Obs.Prof.acc ->
  Algorithm.packed ->
  Config.t ->
  proposals:Value.t Pid.Map.t ->
  Schedule.t ->
  Trace.t
(** See {!Engine.Make.run}; [sink] streams the run's {!Obs.Event.t}s,
    [prof] accumulates per-round GC deltas. *)

val proposals_of_list : Value.t list -> Value.t Pid.Map.t
(** [proposals_of_list [v1; ...; vn]] assigns [vi] to [p_i]. *)

val distinct_proposals : Config.t -> Value.t Pid.Map.t
(** [p_i] proposes value [i] — the canonical totally-ordered, all-distinct
    input. *)

val binary_proposals : Config.t -> ones:Pid.Set.t -> Value.t Pid.Map.t
(** Binary consensus input: processes in [ones] propose 1, the rest 0. *)

val uniform_proposals : Config.t -> Value.t -> Value.t Pid.Map.t
