(** Deterministic worst-case synchronous schedules.

    The classic adversary against flooding algorithms crashes one process per
    round, each time letting the victim's last message reach exactly one
    surviving process, so that one value stays known to a single process for
    [t] rounds. Variants of the same cascade hit the coordinator/leader
    rotation of the phase-based algorithms. Every round is a
    {!Sim.Schedule.crash}, except the asynchronous prefix of
    {!split_brain}, whose rounds are {!Sim.Schedule.delay}s. All schedules
    validate against the ES model; all but the split-brain ones are
    synchronous (gst = 1). *)

open Kernel

val chain : Config.t -> Sim.Schedule.t
(** Round [k] (for [k = 1..t]): [p_k] crashes while its round-[k] message
    reaches only [p_{k+1}]; every other copy is lost. This forces FloodSet /
    FloodSetWS to their [t + 1] worst case and exhibits the longest
    information chain a synchronous run can hide. *)

val silent_crashes : Config.t -> rounds:Round.t list -> Sim.Schedule.t
(** One crash per given round, lowest-id processes first, each crashing
    before sending anything (all copies lost). *)

val coordinator_killer : Config.t -> phase_rounds:int -> Sim.Schedule.t
(** Against rotating-coordinator algorithms whose phase [phi] is led by
    [p_{phi+1}] and spans [phase_rounds] rounds: crash the coordinator of
    each of the first [t] phases in the phase's first round, before it sends
    anything. With [phase_rounds = 2] this drives Hurfin–Raynal to [2t + 2];
    with [4], CT-<>S to [4t + 4]. *)

val leader_killer : Config.t -> f:int -> stride:int -> start:Round.t -> Sim.Schedule.t
(** Crash the lowest-id process still alive at rounds [start], [start +
    stride], ... ([f] crashes in total), each before sending. Aimed at
    min-id leader oracles: [stride = 1] stalls [A_{f+2}] one round per
    crash, [stride = 2] stalls AMR one two-round phase per crash. *)

val minority_keeper : Config.t -> f:int -> Sim.Schedule.t
(** The adversary that holds [A_{f+2}] to exactly [f + 2] rounds at
    [n = 3t + 1] (found by exhaustive serial search and kept as a
    deterministic witness): round 1 crashes [p_1] delivering the minority
    value to [p_2 .. p_{t+2}] — exactly [n - 2t] holders, the adoption
    threshold — and each later round [r] crashes [p_r] delivering only to
    [p_{r+1}], so a single process keeps seeing [n - 2t] copies of the
    minority value while everyone else has moved on; the estimates only
    merge one round after the crash budget runs out. Requires
    [1 <= f <= t]. *)

val split_then_minority : Config.t -> k:int -> f:int -> Sim.Schedule.t
(** The {!split_brain} asynchronous prefix (rounds [1..k]) followed by the
    {!minority_keeper} crash pattern (rounds [k+1 .. k+f]): drives
    [A_{f+2}] to decide at {e exactly} [k + f + 2] for every [k] and every
    [0 <= f <= t] at [n = 3t + 1] — the fast-eventual-decision bound of
    Lemma 15 is achieved, not just respected. *)

val split_brain : Config.t -> k:int -> f:int -> Sim.Schedule.t
(** The Section-6 adversary for [n = 3t + 1]: rounds [1..k] are asynchronous
    — only [p1]'s messages to the [2t] highest-id processes are delayed
    (until round [k+1]) — which provably keeps the estimates of the low-id
    block ([p1..p_{t+1}]) and the high-id block apart, so no quorum-counting
    algorithm with threshold [n - 2t] can decide before round [k]. From
    round [k + 1] the run is synchronous and [f] crashes occur: in round
    [k + i] process [p_i] crashes, its message reaching only the rest of the
    low block — each crash keeps the split alive for one more round. This is
    the workload that drives [A_{f+2}] towards its [k + f + 2] bound and
    AMR towards [k + 2f + 2]. *)
