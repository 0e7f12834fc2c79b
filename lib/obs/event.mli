(** Structured run-lifecycle events.

    One simulated run is, observationally, a sequence of these events — the
    communication-closed-rounds view: a [Run_start], then per round a
    [Round_start] followed by the send-phase events ([Send], with per-copy
    [Drop]/[Delay] fates), the round's [Crash]es, and the receive-phase
    events ([Deliver], [Decide], [Halt]) in process order, and finally a
    [Run_end]. The engine emits them through an {!Sink.t}; exporters
    ({!Jsonl}, {!Chrome}) serialize them and {!Replay} reconstructs the
    run diagram from them.

    Events use only kernel types so every layer (sim, mc, fd, workload,
    bench, bin) can produce and consume them without cycles. *)

open Kernel

type omission = Send_omit | Recv_omit
(** Which side of a declared omission-faulty process loses messages;
    [Sim.Model.omission] is this type. *)

val omission_to_string : omission -> string
(** ["send"] or ["recv"], the wire form. *)

val omission_of_string : string -> omission option

type t =
  | Run_start of {
      algorithm : string;
      n : int;
      t : int;
      proposals : (Pid.t * Value.t) list;  (** sorted by pid *)
      omitters : (Pid.t * omission) list;
          (** the schedule's declared omitters, sorted by pid; the JSON
              field is written only when non-empty and read as [[]] when
              absent *)
    }
  | Round_start of { round : Round.t }
  | Send of { src : Pid.t; round : Round.t; copies : int; bytes : int }
      (** One broadcast: [copies] point-to-point copies ([n] in this model),
          [bytes] the estimated wire total (per-copy header + payload). *)
  | Deliver of { src : Pid.t; dst : Pid.t; sent : Round.t; round : Round.t }
      (** Emitted when the envelope reaches [dst]'s receive phase —
          [round > sent] for delayed messages. *)
  | Drop of { src : Pid.t; dst : Pid.t; round : Round.t }
      (** The copy sent by [src] to [dst] in [round] is lost. *)
  | Delay of { src : Pid.t; dst : Pid.t; round : Round.t; until : Round.t }
      (** The copy is deferred to round [until] (its [Deliver] follows
          there, unless the receiver dies first). *)
  | Crash of { pid : Pid.t; round : Round.t }
  | Decide of { pid : Pid.t; round : Round.t; value : Value.t }
  | Halt of { pid : Pid.t; round : Round.t }
      (** The process returned from [propose] in [round] and sends nothing
          afterwards. *)
  | Fd_output of { pid : Pid.t; round : Round.t; suspected : Pid.t list }
      (** The §4 simulated failure-detector output at [pid] for [round]. *)
  | Run_end of { rounds : int; decided : int; all_halted : bool }

val equal : t -> t -> bool

val label : t -> string
(** The constructor's wire tag, e.g. ["send"]; also the ["ev"] field of the
    JSON encoding. *)

val pp : Format.formatter -> t -> unit

val to_json : t -> Json.t
(** A flat object: [{"ev": <label>; <payload fields>}]. *)

val of_json : Json.t -> (t, string) result
(** Inverse of {!to_json}: [of_json (to_json e)] is [Ok e'] with
    [equal e e']. *)
