open Kernel

type 'm t = 'm Envelope.t list

(* One pass over the raw list, no sort, no tree rebalancing: sender sets
   are what every failure-detector-ish step computes per round, so they
   ride on {!Kernel.Bitset}. *)
let senders_bits inbox ~round =
  List.fold_left
    (fun acc (e : _ Envelope.t) ->
      if Envelope.is_current e ~round then Bitset.add (Pid.to_int e.src) acc
      else acc)
    Bitset.empty inbox
