(** Serial runs and their enumeration.

    The lower-bound proof (Section 2) works with {e serial} runs: synchronous
    runs in which at most one process crashes per round. This module
    enumerates every serial schedule of a small system up to a crash horizon
    — the adversary's full strategy space against a deterministic algorithm —
    which is what makes valency computable.

    A serial schedule is described by one {!choice} per round: either nobody
    crashes, or one victim crashes and its round message reaches exactly the
    given set of surviving processes (every other copy is lost) — the round
    {!Sim.Schedule.crash} builds. After the horizon the run continues
    crash-free and synchronous forever.

    The omission-fault adversary keeps the one-act-per-round shape: a round
    may instead apply one send-omission (a culprit's copies towards a target
    set are dropped) or one receive-omission (the copies from a source set
    towards the culprit are dropped). Fault classes are drawn under an
    explicit budget [(t_crash, t_omit)] that {!Sim.Model.split_budget}
    derives from the {!Sim.Model.faults} menu: a fresh culprit costs one
    omission unit and fixes that process's
    class for the rest of the run; declared culprits re-offend for free, and
    crash victims stay disjoint from omitters. *)

open Kernel

type choice =
  | No_crash
  | Crash of { victim : Pid.t; receivers : Pid.Set.t }
  | Send_omit of { culprit : Pid.t; dropped : Pid.Set.t }
      (** [culprit]'s round message is dropped towards every process in
          [dropped] (a non-empty subset of the other alive processes). *)
  | Recv_omit of { culprit : Pid.t; dropped : Pid.Set.t }
      (** the round messages from every process in [dropped] towards
          [culprit] are dropped at its doorstep. *)

val pp_choice : Format.formatter -> choice -> unit

type policy =
  | All_subsets  (** every receiver subset — exact but [O(2^n)] per victim *)
  | Prefixes
      (** receiver sets restricted to id-order prefixes of the survivors —
          the adversary used in the classical [t+1] proof; polynomial
          branching, enough to realise every bound in this repository *)

val choices :
  ?faults:Sim.Model.faults ->
  ?send_omitters:Pid.Set.t ->
  ?recv_omitters:Pid.Set.t ->
  ?omit_left:int ->
  policy:policy ->
  alive:Pid.Set.t ->
  crashes_left:int ->
  unit ->
  choice list
(** All legal choices for one round: [No_crash], plus every (victim,
    receivers) pair permitted by the policy when the crash budget allows,
    plus — for fault menus beyond [Crash_only] (the default) — every
    omission act permitted by the declared omitter sets and the remaining
    omission budget [omit_left]. The budgets are the caller's to thread;
    the config is not needed. *)

val plan_of : Config.t -> choice -> Sim.Schedule.plan
(** The one-round plan a choice denotes: nothing, one crash heard by
    exactly [receivers] ({!Sim.Schedule.crash}), or the lost entries of
    one omission act. *)

val omitters_of : choice list -> (Pid.t * Sim.Model.omission) list
(** The omitter declarations a choice sequence implies, in order of first
    offence; each culprit's class is fixed by its first omission act. *)

val to_schedule :
  ?budget:Sim.Model.budget -> Config.t -> choice list -> Sim.Schedule.t
(** The synchronous schedule whose round [k] applies the [k]-th choice,
    with {!omitters_of} declared as its omitter set. Crash-only sequences
    produce exactly the schedules of the crash-only enumerator. *)

val budget_of :
  ?omit_budget:int -> faults:Sim.Model.faults -> Config.t -> Sim.Model.budget option
(** The explicit budget a sweep under the given fault menu runs with:
    [None] for [Crash_only] (crash sweeps carry no budget, as before),
    and the {!Sim.Model.split_budget} split otherwise. *)

(** {1 Adversary state}

    The per-branch state the enumerator threads down the DFS; exposed so
    the reduced sweeps ({!Dedup}) can reuse exactly the same transition
    relation instead of re-deriving it. *)

type adversary = {
  alive : Pid.Set.t;
  crashes_left : int;
  send_omitters : Pid.Set.t;
  recv_omitters : Pid.Set.t;
  omit_left : int;
}

val initial : ?omit_budget:int -> ?faults:Sim.Model.faults -> Config.t -> adversary
(** Everybody alive, full budgets. [faults] defaults to [Crash_only] with
    the full crash budget [t]; omission menus split [t] per
    {!Sim.Model.split_budget} ([omit_budget] defaults to 1, clamped to
    [t]). *)

val advance : adversary -> choice -> adversary
(** One round's transition: a crash removes the victim and debits the
    crash budget; a fresh omission act declares the culprit and debits the
    omission budget; a repeat offence is free. *)

val adversary_choices :
  policy:policy -> faults:Sim.Model.faults -> adversary -> choice list
(** {!choices} with every budget/omitter argument drawn from the state. *)

val fold :
  ?faults:Sim.Model.faults ->
  ?omit_budget:int ->
  policy:policy ->
  ?prefix:choice list ->
  Config.t ->
  horizon:int ->
  root:'s ->
  step:('s -> choice -> 's) ->
  leaf:(choice list -> 's -> unit) ->
  unit
(** DFS over every serial choice sequence of length [horizon] (with at most
    [t] crashes in total, and omission acts per the fault menu), threading
    a caller state down the tree: the root carries [root], each edge
    extends its parent's state with [step], and [leaf] receives the full
    sequence together with the state at its end. Because [step] runs once
    per {e tree edge} rather than once per leaf, carrying the simulation
    state here is what makes sweeps prefix-sharing: the common prefix of
    two schedules is simulated exactly once.

    [prefix] (default empty) pins the first rounds to the given choices and
    explores only that subtree — the sharding hook for parallel sweeps.
    [root] must then be the caller's state at the {e end} of the prefix;
    [leaf] still receives full sequences ([prefix] included). Raises
    [Invalid_argument] if the prefix is longer than the horizon. *)

val enumerate :
  ?faults:Sim.Model.faults ->
  ?omit_budget:int ->
  policy:policy ->
  Config.t ->
  horizon:int ->
  f:(choice list -> unit) ->
  unit
(** Apply [f] to every serial choice sequence of length [horizon] (with at
    most [t] crashes in total). The number of sequences is exponential in
    [horizon]; intended for [n <= 5]. *)

val count :
  ?faults:Sim.Model.faults ->
  ?omit_budget:int ->
  policy:policy ->
  Config.t ->
  horizon:int ->
  int
(** Number of sequences {!enumerate} visits. *)
