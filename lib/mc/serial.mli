(** Serial runs: the adversary's vocabulary and transition.

    The lower-bound proof (Section 2) works with {e serial} runs: synchronous
    runs in which at most one process crashes per round. Against a
    deterministic algorithm, the adversary's choices are its whole strategy
    space, which is what makes valency computable. This module defines
    those choices, what each one denotes, and how the adversary's state
    moves from round to round. It enumerates nothing: {!Distrib} searches
    the choice tree through {!Menu}, and the test suite's reference sweep
    walks the same tree with {!initial}, {!adversary_choices} and
    {!advance}.

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
    with {!omitters_of} declared as its omitter set (none for a crash-only
    sequence). *)

val budget_of :
  ?omit_budget:int -> faults:Sim.Model.faults -> Config.t -> Sim.Model.budget option
(** The explicit budget a sweep under the given fault menu runs with:
    [None] for [Crash_only] (crash sweeps carry no budget, as before),
    and the {!Sim.Model.split_budget} split otherwise. *)

(** {1 Adversary state}

    The per-branch state a search threads down the choice tree. {!Menu}
    interns it for {!Distrib}, and the reference sweep steps it directly,
    so both walk exactly the same transition relation. *)

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
