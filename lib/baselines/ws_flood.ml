open Kernel

type t = { est : Value.t; halt : Bitset.t }
type payload = { p_est : Value.t; p_halt : Bitset.t }

let init v = { est = v; halt = Bitset.empty }
let payload t = { p_est = t.est; p_halt = t.halt }

(* One walk over pids 1..n beside the envelopes, which arrive ascending,
   one per sender. A silent pid is suspected; a sender is accused when its
   halt set holds [me]. Both join [halt] through [Bitset.add], which
   returns its argument for a member, so a round that learns nothing
   builds no set. A sender outside the old [halt] that does not accuse
   [me] is in [msgSet]: it is in the new [halt] only if silent or an
   accuser, so its membership is settled when the walk reaches it. *)
let compute ~n ~me t current =
  let me = Pid.to_int me in
  let rest = ref current and halt = ref t.halt in
  let est = ref t.est and kept = ref false and kept_self = ref false in
  for p = 1 to n do
    match !rest with
    | (e : payload Sim.Envelope.t) :: tl when Pid.to_int e.src = p ->
        rest := tl;
        if Bitset.mem me e.payload.p_halt then halt := Bitset.add p !halt
        else if not (Bitset.mem p !halt) then begin
          est :=
            if !kept then Value.min !est e.payload.p_est else e.payload.p_est;
          kept := true;
          if p = me then kept_self := true
        end
    | _ -> halt := Bitset.add p !halt
  done;
  (match !rest with
  | [] -> ()
  | _ :: _ ->
      invalid_arg "Ws_flood.compute: envelopes not ascending one per sender");
  assert !kept_self;
  if Value.equal !est t.est && Bitset.equal !halt t.halt then t
  else { est = !est; halt = !halt }

let detects_false_suspicion t ~config = Bitset.cardinal t.halt > Config.t config

let payload_bytes p = 8 + 4 + (2 * Bitset.cardinal p.p_halt)

let pp ppf t =
  Format.fprintf ppf "@[est=%a halt=%a@]" Value.pp t.est Bitset.pp t.halt

let pp_payload ppf p =
  Format.fprintf ppf "@[est=%a halt=%a@]" Value.pp p.p_est Bitset.pp p.p_halt
