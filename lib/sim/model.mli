(** The two round-based models of Section 1.2.

    {b SCS} — the synchronous crash-stop model: if [p_i] crashes in round [k],
    any subset of its round-[k] messages may be lost and the rest are received
    in round [k]; messages from non-crashed processes are received in the
    round they were sent. No message is ever delayed.

    {b ES} — the eventually synchronous model: runs may be "asynchronous" for
    an arbitrary yet finite number of rounds and then become synchronous.
    Every run satisfies (i) t-resilience: every process completing round [k]
    receives round-[k] messages from at least [n - t] processes, (ii) reliable
    channels: correct-to-correct messages are never lost but may be delayed,
    and (iii) eventual synchrony: there is an unknown finite round [K] (the
    schedule's [gst]) from which rounds behave synchronously. A run is
    {e synchronous} when [K = 1]; per footnote 5, even then messages sent by a
    process in its crash round may be delayed arbitrarily rather than lost. *)

type t =
  | Scs
  | Es
  | Dls_basic
      (** The fail-stop {e basic round model} of Dwork, Lynch and Stockmeyer
          (Sections 3.1/3.2.1 of [6]), which the paper's Section 1.4 notes
          is exactly the variant of ES without the t-resilience property in
          which all delayed messages are lost: before the (unknown, finite)
          global stabilisation round any message may simply be lost; from
          that round on, rounds behave synchronously. The lower-bound proof
          simplifies trivially to this model, which {!Mc.Attack.solo_split_dls}
          demonstrates. *)

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
val to_string : t -> string

(** {1 Fault classes beyond crash-stop}

    The fault-model hierarchy is crash ⊂ omission ⊂ Byzantine (DESIGN
    §13): a crash is an omission fault that drops {e every} message from
    its crash round on, and an omission fault is a Byzantine fault that
    happens to follow the protocol on the messages it does deliver. An
    omission-faulty process keeps executing its automaton — it may even
    decide — but the adversary selectively drops messages on one side of
    it without the process ever knowing. *)

type omission = Obs.Event.omission =
  | Send_omit  (** outgoing messages may be dropped (the culprit sends
                   into the void); incoming delivery is unaffected *)
  | Recv_omit  (** incoming messages may be dropped (the culprit hears
                   only a subset); its own sends are unaffected *)

val equal_omission : omission -> omission -> bool
val omission_to_string : omission -> string
val omission_of_string : string -> omission option
val pp_omission : Format.formatter -> omission -> unit

type budget = { t_crash : int; t_omit : int }
(** A per-run adversary budget: at most [t_crash] crash victims and at
    most [t_omit] distinct omission-faulty processes. Soundness rule
    (DESIGN §13): a schedule under budget [(c, o)] is a legal attack on
    an algorithm designed for [t] faults only when [c + o <= t] — the
    validator enforces exactly that when a budget is declared. *)

val budget : t_crash:int -> t_omit:int -> budget
(** Raises [Invalid_argument] on a negative component. *)

val pp_budget : Format.formatter -> budget -> unit
(** Renders as ["c+o"], the form the codec and CLI use. *)

type faults = Crash_only | Send_omit_only | Recv_omit_only | Mixed
(** The fault menu the sweep/fuzz CLIs expose as [--faults]: which
    classes the adversary may draw on. [Mixed] allows crashes and both
    omission classes under the same budget. *)

val faults_to_string : faults -> string
val faults_of_string : string -> faults option
val pp_faults : Format.formatter -> faults -> unit
val all_faults : faults list

val split_budget :
  ?omit_budget:int -> faults:faults -> Kernel.Config.t -> budget
(** How a fault menu splits the design threshold [t], for the sweeps and
    the random generators alike. [Crash_only] is [t+0]; the pure omission
    menus are [0+o]; [Mixed] is [(t-o)+o], where [o = min omit_budget t]
    ([omit_budget] defaults to 1), so [t_crash + t_omit <= t] always.
    Built with {!budget}, so a negative [omit_budget] raises
    [Invalid_argument] outside [Crash_only]. *)
