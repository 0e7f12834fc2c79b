(** Helpers over the list of envelopes delivered to a process in one round.

    The receive phase of round [k] hands an algorithm every message arriving
    in round [k]: the round-[k] messages delivered on time plus any delayed
    messages whose delivery round is [k]. Suspicion (Section 1.2) is defined
    from the current-round subset: [p_i] {e suspects} [p_j] in round [k] iff
    no round-[k] message from [p_j] arrives in round [k]. *)

open Kernel

type 'm t = 'm Envelope.t list

val senders_bits : 'm t -> round:Round.t -> Kernel.Bitset.t
(** Senders of current-round envelopes, as an unboxed bitset: one pass
    over the inbox, no sort, no allocation beyond the result. Requires
    [n <= Kernel.Bitset.max_pid]. *)
