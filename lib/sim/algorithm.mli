(** The interface every round-based consensus algorithm implements.

    An algorithm is a deterministic automaton per process (Section 1.2): in
    the send phase of round [k] it produces one message, broadcast to all
    processes (the engine routes a copy to everyone, including the sender);
    in the receive phase it consumes the envelopes arriving in round [k] and
    updates its state. Decisions are observed through {!S.decision}; a
    process that has returned from [propose] reports {!S.halted} and stops
    sending.

    {2 Purity and determinism}

    The callbacks must be {e pure functions of their arguments} and the
    state must be {e plain immutable data}:

    - [init], [on_send] and [on_receive] may not read clocks, randomness or
      any ambient mutable state, and may not mutate their inputs — given
      equal arguments they must return structurally equal results. The
      whole simulation stack assumes this: the engine forks states at DFS
      choice points without copying, fuzz campaigns replay runs from seeds,
      and parallel sweeps re-run the same subtree on any domain expecting
      bit-identical results.
    - [state] and [msg] must contain no functions, no mutable fields and no
      abstract values with non-structural identity (no closures, refs,
      arrays that are later mutated, hash tables, ...). The model checker's
      transposition table ({!Mc.Dedup}) keys on
      {!Engine.Make.Arena.fingerprint}, which embeds algorithm states
      and message payloads, hashes them with [Hashtbl.hash] and compares
      them with [compare a b = 0] — the same relation as polymorphic
      [(=)] on this float-free data, but one that short-circuits on
      physically shared subterms (DESIGN §16); a state violating this is
      not {e unsound} (a missed structural equality only loses cache hits)
      but a state whose structural equality is {e coarser} than its
      behaviour — e.g. a memoisation field that does not affect future
      steps — would be, so keep states canonical: equal behaviour iff
      equal structure.

    These are the same rules every algorithm in this repository already
    follows; they are spelled out here because the reduction layer now
    depends on them. *)

open Kernel

module type S = sig
  type state
  (** Local state of one process — immutable, function-free data (see the
      purity contract above). *)

  type msg
  (** Round messages. Algorithms that conceptually send nothing in a round
      send an explicit dummy constructor, since receiving {e any} round-[k]
      message is what prevents suspicion. *)

  val name : string

  val model : Model.t
  (** The model the algorithm is designed for. Running an SCS algorithm on
      ES schedules is permitted by the engine — that mismatch is exactly
      what experiment E9 demonstrates — but the properties it guarantees
      only hold on schedules of its own model. *)

  val symmetric : bool
  (** Whether the automaton commutes with process-id permutations: for
      every permutation [pi] of [p1..pn], relabelling the pids in the
      proposals, the schedule and every pid-valued message/state field
      yields exactly the relabelled run. Equivalently: no step breaks ties
      or selects inputs {e by id}. Tracking pid {e sets}, counting
      messages, and taking minima over {e values} are all symmetric;
      "the [n - t] estimates with the lowest sender ids", rotating
      coordinators and leader-based phases are not.

      {!Mc.Symmetry} consults this flag before sweeping one representative
      per orbit of binary proposal assignments. The default answer is
      [false]: a wrong [true] silently unsounds symmetry-reduced sweeps
      (they would scale one orbit member's verdicts to the whole orbit),
      while a wrong [false] merely forgoes the reduction. Functor-built
      algorithms should inherit the flag of their weakest component —
      [A_{t+2}] over a coordinator-based fallback declares [false] even
      though its flooding phase is symmetric. *)

  val init : Config.t -> Pid.t -> Value.t -> state
  (** [init config pi v] is the state of process [pi] after [propose(v)]
      and before round 1. *)

  val on_send : state -> Round.t -> msg
  (** The message broadcast in the send phase of the given round. *)

  val on_receive : state -> Round.t -> msg Envelope.t list -> state
  (** The receive phase: every envelope delivered in this round (current
      and delayed), sorted by sender id. *)

  val decision : state -> Value.t option
  (** The value decided so far, if any. Once [Some v], it must stay
      [Some v] forever (the checker enforces this). *)

  val halted : state -> bool
  (** The process has returned from [propose]: it will not send or receive
      any further message. *)

  val wire_size : msg -> int
  (** Estimated payload size in bytes if the message were serialized (tags,
      fixed-width ints, length-prefixed collections). Used by the cost
      experiment (E10) to compare bytes-on-wire across algorithms; it does
      not affect execution. Headers (sender, round) are accounted by the
      engine. *)

  val pp_msg : Format.formatter -> msg -> unit
  val pp_state : Format.formatter -> state -> unit
end

val header_bytes : int
(** Per-copy header the engine charges on top of {!S.wire_size}: sender id
    (2 bytes), round number (4) and a message tag (1). *)

type packed = Packed : (module S with type state = 's and type msg = 'm) -> packed
(** An algorithm with its state and message types sealed — what sweeps,
    campaigns and the CLI pass around. *)

val name : packed -> string
val model : packed -> Model.t
val symmetric : packed -> bool
