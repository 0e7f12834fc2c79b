(** The serial adversary's transition system, interned.

    The arena DFS of {!Distrib}, with or without the {!Dedup} table,
    revisits semantically identical adversary states constantly — budgets
    and victim pools converge after a few rounds — and everything the
    immutable DFS used to recompute per edge is a pure function of that
    state: the choice menu, each choice's compiled round plan, the
    successor adversary, the canonical bitset mirrors the dedup keys need,
    and the leaf schedule the properties are judged against. A menu
    computes each of these once per {e distinct} adversary state; a warm
    edge costs two array loads and allocates nothing.

    Ownership matches the arena's: one menu per shard, never shared. *)

open Kernel

type node = {
  adv : Serial.adversary;
  choices : Serial.choice array;
      (** in {!Serial.adversary_choices} order — the DFS visiting
          [choices] left to right reproduces the immutable sweep's
          exploration order exactly *)
  plans : Sim.Schedule.compiled_plan array;
      (** [plans.(i)] is [choices.(i)]'s round plan, precompiled *)
  nexts : node option array;  (** memoized {!child} slots *)
  aliveb : Bitset.t;  (** [adv.alive], canonical *)
  sendb : Bitset.t;  (** [adv.send_omitters], canonical *)
  recvb : Bitset.t;  (** [adv.recv_omitters], canonical *)
  leaf_schedule : Sim.Schedule.t;
      (** the plan-free schedule declaring this state's omitters (shared
          empty schedule when there are none) — what a run terminating in
          this adversary state is checked against *)
}

type t

val create :
  ?faults:Sim.Model.faults -> ?omit_budget:int -> policy:Serial.policy ->
  Config.t -> t
(** An empty menu. [faults] defaults to [Crash_only]; [omit_budget]
    defaults as in {!Serial.initial}. Nodes are interned on demand. *)

val root : t -> node
(** The node for {!Serial.initial}'s adversary state. *)

val node_of : t -> Serial.adversary -> node
(** Intern an arbitrary adversary state — the sweeps use this for the node
    at the end of a replayed prefix. Keyed on the canonical
    (alive, send-omitters, receive-omitters, crashes left, omissions left)
    tuple, so structurally different but equal [Pid.Set]s land on the same
    node. *)

val child : t -> node -> int -> node
(** [child t node i] is the node after taking [node.choices.(i)];
    memoized in [node.nexts]. *)
