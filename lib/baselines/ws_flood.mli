(** Estimate flooding with suspicion tracking — the compute() procedure of
    the paper's Fig. 2, shared by FloodSetWS and by Phase 1 of [A_{t+2}].

    Each process keeps an estimate [est] (initially its proposal) and a set
    [halt] of processes [p_j] such that, in the current round or a lower one,
    the process suspected [p_j] {e or} [p_j] reported suspecting the process
    (lines 31–35 of Fig. 2). On receiving the round's messages it adds the
    processes it suspects this round and the senders that accuse it, filters
    the round's messages down to senders outside [halt] ([msgSet]), and takes
    the minimum estimate seen there. A process never suspects itself, so its
    own message is always in [msgSet] and the estimate is well defined and
    non-increasing. *)

open Kernel

type t = private { est : Value.t; halt : Bitset.t }

type payload = { p_est : Value.t; p_halt : Bitset.t }
(** The content of an ESTIMATE message. Halt sets live on
    {!Kernel.Bitset} — one unboxed word while every member is at most 62,
    a word array above — because [compute] runs once per process per round
    on the engine's hottest path. *)

val init : Value.t -> t
val payload : t -> payload

val compute :
  n:int -> me:Pid.t -> t -> payload Sim.Envelope.t list -> t
(** [compute ~n ~me t current] updates the state from the {e current-round}
    ESTIMATE envelopes (the caller filters out late deliveries and other
    message kinds; suspicion is defined by same-round receipt). [current]
    must be ascending by sender, one envelope per sender, all in [1..n] —
    the order the engine delivers — and must include the process's own
    envelope; [Invalid_argument] otherwise. Returns the state physically
    unchanged when nothing was learned this round, so steady-state rounds
    allocate nothing. *)

val detects_false_suspicion : t -> config:Config.t -> bool
(** [|halt| > t], the Phase-2 test (line 10 of Fig. 2): by Lemma 13 this can
    only happen when some false suspicion occurred in the run. *)

val payload_bytes : payload -> int
(** Serialized size estimate of an ESTIMATE payload: the estimate plus a
    length-prefixed Halt set. *)

val pp : Format.formatter -> t -> unit
val pp_payload : Format.formatter -> payload -> unit
