(** Random schedule generators — all produce schedules that validate against
    their model by construction (a fact the test suite re-checks).

    Synchronous runs need no care: with at most [t] crashes in total, any
    pattern of crash rounds and per-receiver crash-round losses satisfies
    t-resilience automatically. Asynchronous (ES) runs do need care: each
    receiver must still see at least [n - t] current-round messages every
    round, so the generators bound the number of messages withheld from any
    receiver by the round's slack. *)

open Kernel

val synchronous :
  Rng.t -> Config.t -> ?max_crashes:int -> ?horizon:int -> unit -> Sim.Schedule.t
(** A random synchronous schedule: up to [max_crashes] (default [t])
    processes crash at random rounds within [horizon] (default [t + 3]);
    each victim's crash-round message reaches a random subset of the others
    and is lost to the rest. *)

val with_omissions :
  Rng.t ->
  Config.t ->
  ?faults:Sim.Model.faults ->
  ?omit_budget:int ->
  ?max_crashes:int ->
  ?horizon:int ->
  unit ->
  Sim.Schedule.t
(** A random synchronous schedule with declared omission faults: the
    design threshold [t] is split into [(t_crash, t_omit)] by
    {!Sim.Model.split_budget}, the split the sweeps use (default [Mixed]
    with [omit_budget = 1], clamped to [t]), up to
    [t_crash] crashes land as in {!synchronous}, and 1..[t_omit]
    processes disjoint from the victims are declared send- or
    receive-omitters whose licensed losses are sprinkled across the
    horizon. The schedule carries the explicit budget, so
    {!Sim.Schedule.validate} checks it under the soundness rule
    [t_crash + t_omit <= t]. *)

val synchronous_with_delays :
  Rng.t -> Config.t -> ?max_crashes:int -> ?horizon:int -> unit -> Sim.Schedule.t
(** Like {!synchronous}, but part of each victim's crash-round messages are
    {e delayed} rather than lost (footnote 5) — still a synchronous run. *)

val eventually_synchronous :
  Rng.t ->
  Config.t ->
  ?max_crashes:int ->
  gst:int ->
  ?max_delay:int ->
  unit ->
  Sim.Schedule.t
(** A random ES schedule with the given gst: before gst every receiver
    misses up to [t] random current-round messages (minus those already
    missing to crashes), each delayed by 1..[max_delay] rounds (or lost when
    the sender is faulty and a coin says so); from gst on the run is
    synchronous. Crashes happen at random rounds up to [gst + 2]. *)

val dls_basic :
  Rng.t ->
  Config.t ->
  ?max_crashes:int ->
  gst:int ->
  ?loss_rate_percent:int ->
  unit ->
  Sim.Schedule.t
(** A random schedule of the DLS fail-stop basic round model (Section 1.4):
    before [gst] every message is independently lost with the given
    probability (default 30%) — no t-resilience, no reliable channels —
    and from [gst] on rounds are synchronous with random crash-round
    losses. *)

val synchronous_after :
  Rng.t ->
  Config.t ->
  k:int ->
  f:int ->
  ?stall_low_ids:bool ->
  unit ->
  Sim.Schedule.t
(** The Section-6 shape: asynchronous for rounds [1..k] (maximal legal
    withholding, biased against low-id senders when [stall_low_ids], which
    stalls min-id leader oracles), then synchronous with exactly [f] crashes
    in rounds [k+1 ..]. *)
