(** The attack side of the lower bound: turning "too fast in synchronous
    runs" into a concrete ES agreement violation.

    Proposition 1 says no ES algorithm can globally decide at [t + 1] in
    every synchronous run. Its proof builds indistinguishable runs — a
    synchronous run and an asynchronous one that some process cannot tell
    apart at the end of round [t + 1] — and lets them decide differently.
    This module realises that construction {e executably} against
    FloodSetWS, the canonical algorithm that does decide at [t + 1] in every
    synchronous run, and runs the same schedules against any algorithm.

    The deterministic witness follows the proof's recipe:
    - rounds [1 .. t-1]: a chain of crashes carries the minority value 0
      from [p_1] to [p_t] while hiding it from everyone else — after round
      [t - 1] only [p_t] (correct!) holds 0;
    - round [t]: [p_t]'s message is {e delayed} to everyone but [p_{t+1}]
      — the other processes falsely suspect [p_t], exactly the
      suspicion-vs-crash ambiguity of ES;
    - round [t + 1]: [p_{t+1}] crashes, its message reaching only [p_t].

    At the end of round [t + 1], [p_t] has seen no accusation it believes
    and decides 0; every process [p_j] ([j >= t + 2]) has [p_t] in its
    suspicion set, excludes [p_t]'s estimate, and decides 1. Uniform
    agreement is violated — in a legal ES run (the delayed messages arrive
    at round [t + 2]; every process received [n - t] messages every round).
    An indulgent algorithm must therefore not decide at [t + 1], and the
    extra round it spends is the inherent price of indulgence. *)

open Kernel

type report = {
  algorithm : string;
  config : Config.t;
  proposals : Value.t Pid.Map.t;
  schedule : Sim.Schedule.t;
  trace : Sim.Trace.t;
  events : Obs.Event.t list;
      (** the run's event stream; {!Obs.Replay.pp_diagram} draws it *)
  violations : Sim.Props.violation list;  (** non-empty = attack succeeded *)
}

val pp_report : Format.formatter -> report -> unit

val witness_schedule : Config.t -> Sim.Schedule.t
(** The proof-guided ES schedule described above ([0 < t < n/2]). *)

val witness_proposals : Config.t -> Value.t Pid.Map.t
(** [p_1] proposes 0, everyone else proposes 1. *)

val floodset_ws_witness : Config.t -> report
(** Run FloodSetWS under the witness: the report's [violations] contains the
    uniform-agreement violation (asserted by the test suite for every
    [0 < t < n/2] up to n = 9). *)

val run_witness : Sim.Algorithm.packed -> Config.t -> report
(** The same schedule against any algorithm — e.g. [A_{t+2}] survives it. *)

val solo_split_schedule : ?rounds:int -> Config.t -> Sim.Schedule.t
(** The crash-free split attack: every message from [p_1] in rounds
    [1 .. rounds] (default [t + 1]) is delayed to round [rounds + 1], so
    [p_1] is falsely suspected throughout while seeing everyone. Against
    cumulative flooding (FloodSet) this is the minimal ES counterexample:
    [p_1] decides its own minority value at [t + 1], everybody else decides
    without ever seeing it. No crash occurs at all — the violation is pure
    asynchrony. With [rounds = t + 2] it also isolates [p_1]'s Phase-2
    message, the schedule the E11 ablation needs. *)

val run_solo_split : Sim.Algorithm.packed -> Config.t -> report
(** {!solo_split_schedule} against any algorithm, with [p_1] proposing 0 and
    everyone else 1. *)

val solo_split_dls : Config.t -> Sim.Schedule.t
(** The same attack in the DLS fail-stop basic round model (Section 1.4):
    the isolating copies are {e lost} rather than delayed — legal there for
    any sender before the stabilisation round. The paper remarks that the
    lower-bound proof simplifies trivially to that model; this is the
    executable version of the remark. *)

val run_solo_split_dls : Sim.Algorithm.packed -> Config.t -> report
