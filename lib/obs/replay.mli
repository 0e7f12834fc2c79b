(** Reconstructing a run from its event stream.

    The event stream is the one per-round record of a run, and this module
    draws the one Fig.-1-style space/time diagram from it: [ipi run -d],
    [ipi attack], the experiments and the examples run with an
    {!Sink.memory} and render the drained events; [ipi trace FILE] parses
    a saved JSONL log and renders the same diagram without re-executing
    anything. *)

type run = {
  algorithm : string option;  (** from [Run_start], when present *)
  n : int;
  t : int option;
  omitters : (Kernel.Pid.t * Event.omission) list;
      (** from [Run_start]; [[]] without one *)
  rounds : int;
      (** columns to draw: [Run_end.rounds] when present, otherwise the
          highest round seen in any event *)
  events : Event.t list;
}

val of_events : Event.t list -> (run, string) result
(** [Error] when the stream mentions no process at all. *)

val pp_summary : Format.formatter -> run -> unit
(** One line: algorithm, n/t, rounds, decisions with rounds. *)

val pp_diagram : Format.formatter -> run -> unit
(** One row per process, one cell per round: [X] crash, [D=v] decision,
    [h] halted (no longer sending), [.] already crashed, [*] participating;
    then the declared omitters and a legend of off-schedule fates in event
    order: each [Delay], and each [Drop], attributed to its send- or
    receive-omitter when the run declares one. *)
