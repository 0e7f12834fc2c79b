(** A message in transit or delivered: the payload together with its sender
    and the round in which it was sent.

    In ES a message can be received in a round strictly higher than [sent];
    algorithms distinguish "current-round" messages (which define suspicion)
    from late ones by comparing [sent] with the receive round.

    {b Loan contract.} [sent] and [payload] are mutable so the engine's
    zero-allocation tail loop can recycle one envelope per sender across
    quiet rounds instead of allocating [n] fresh ones per round. An inbox's
    envelopes are therefore {e loaned} to {!Algorithm.S.on_receive} for the
    duration of that call only: an algorithm may read them freely and may
    keep the {e payload} value (payloads are never mutated in place — each
    round installs a new one), but must not store the envelope records
    themselves in its state. Every algorithm in this repository extracts
    [src]/[sent]/[payload] or builds its own envelopes ({!make}), which is
    the intended style. *)

open Kernel

type 'm t = { src : Pid.t; mutable sent : Round.t; mutable payload : 'm }

val make : src:Pid.t -> sent:Round.t -> 'm -> 'm t
val is_current : 'm t -> round:Round.t -> bool

val compare_src : 'm t -> 'm t -> int
(** Order by sender id, then by send round (inboxes are sorted with this
    for determinism). *)

val pp : (Format.formatter -> 'm -> unit) -> Format.formatter -> 'm t -> unit
