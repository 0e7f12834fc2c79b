open Kernel

type fate = Same_round | Delayed_until of Round.t | Lost

type plan = {
  crashes : Pid.t list;
  lost : (Pid.t * Pid.t) list;
  delayed : (Pid.t * Pid.t * Round.t) list;
}

let empty_plan = { crashes = []; lost = []; delayed = [] }

let crash ~n ~heard_by victim =
  {
    crashes = [ victim ];
    lost =
      List.filter_map
        (fun dst ->
          if Pid.Set.mem dst heard_by then None else Some (victim, dst))
        (Pid.others ~n victim);
    delayed = [];
  }

let delay ~n ~except src ~until =
  {
    crashes = [];
    lost = [];
    delayed =
      List.filter_map
        (fun dst ->
          if Pid.Set.mem dst except then None else Some (src, dst, until))
        (Pid.others ~n src);
  }

type t = {
  model : Model.t;
  gst : Round.t;
  plans : plan array;
  crash_rounds : Round.t Pid.Map.t; (* derived index *)
  omitters : Model.omission Pid.Map.t;
  budget : Model.budget option;
}

let derive_crash_rounds plans =
  let add_round acc round plan =
    List.fold_left
      (fun acc victim ->
        if Pid.Map.mem victim acc then acc
        else Pid.Map.add victim round acc)
      acc plan.crashes
  in
  let _, map =
    Array.fold_left
      (fun (k, acc) plan -> (k + 1, add_round acc (Round.of_int k) plan))
      (1, Pid.Map.empty) plans
  in
  map

let make ?(omitters = []) ?budget ~model ~gst plans =
  let plans = Array.of_list plans in
  let omitters =
    List.fold_left
      (fun acc (p, cls) -> Pid.Map.add p cls acc)
      Pid.Map.empty omitters
  in
  { model; gst; plans; crash_rounds = derive_crash_rounds plans; omitters;
    budget }

let model s = s.model
let gst s = s.gst
let horizon s = Array.length s.plans

let plan_at s round =
  let k = Round.to_int round in
  if k <= Array.length s.plans then s.plans.(k - 1) else empty_plan

let plans s = Array.to_list s.plans
let crash_round s p = Pid.Map.find_opt p s.crash_rounds

let faulty s =
  Pid.Map.fold (fun p _ acc -> Pid.Set.add p acc) s.crash_rounds Pid.Set.empty

let crash_count s = Pid.Map.cardinal s.crash_rounds
let omitters s = Pid.Map.bindings s.omitters
let omitter_class s p = Pid.Map.find_opt p s.omitters
let omit_count s = Pid.Map.cardinal s.omitters
let budget s = s.budget

let omitter_set s =
  Pid.Map.fold (fun p _ acc -> Pid.Set.add p acc) s.omitters Pid.Set.empty

let omitters_of_class cls s =
  Pid.Map.fold
    (fun p c acc ->
      if Model.equal_omission c cls then Pid.Set.add p acc else acc)
    s.omitters Pid.Set.empty

let send_omitters = omitters_of_class Model.Send_omit
let recv_omitters = omitters_of_class Model.Recv_omit

(* A lost entry is justified by a declared omission fault when it sits on
   the faulty side of an omitter: outgoing for a send-omitter, incoming
   for a receive-omitter. Such losses are the omitter's steady-state
   behaviour, not asynchrony, so they are legal in any round of any model
   and do not push {!effective_gst}. *)
let omission_justified s ~src ~dst =
  (match Pid.Map.find_opt src s.omitters with
  | Some Model.Send_omit -> true
  | Some Model.Recv_omit | None -> false)
  ||
  match Pid.Map.find_opt dst s.omitters with
  | Some Model.Recv_omit -> true
  | Some Model.Send_omit | None -> false

let crashes_after s round =
  Pid.Map.fold
    (fun _ r acc -> if Round.(r > round) then acc + 1 else acc)
    s.crash_rounds 0

let fate s ~src ~dst ~round =
  let plan = plan_at s round in
  if List.exists (fun (i, j) -> Pid.equal i src && Pid.equal j dst) plan.lost
  then Lost
  else
    match
      List.find_opt
        (fun (i, j, _) -> Pid.equal i src && Pid.equal j dst)
        plan.delayed
    with
    | Some (_, _, until) -> Delayed_until until
    | None -> Same_round

(* ------------------------------------------------------------------ *)
(* Compiled plans                                                      *)

type compiled_fates =
  | Quiet  (* no losses or delays: every fate is [Same_round] *)
  | Single_lost of { sl_src : int; sl_dsts : Bitset.t }
      (* one sender's messages lost to a destination set, nothing delayed —
         the shape of every serial-adversary crash plan *)
  | Single_dst of { sd_dst : int; sd_srcs : Bitset.t }
      (* one receiver loses messages from a source set, nothing delayed —
         the shape of every serial-adversary receive-omission plan. *)
  | Table of fate array  (* [(src-1) * c_n + (dst-1)] *)

type compiled_plan = { source : plan; c_n : int; cfates : compiled_fates }

let single_lost_src plan =
  match (plan.lost, plan.delayed) with
  | (src0, _) :: rest, [] ->
      if List.for_all (fun (src, _) -> Pid.equal src src0) rest then Some src0
      else None
  | _ -> None

let single_lost_dst plan =
  match (plan.lost, plan.delayed) with
  | (_, dst0) :: rest, [] ->
      if List.for_all (fun (_, dst) -> Pid.equal dst dst0) rest then Some dst0
      else None
  | _ -> None

let compile_plan ~n plan =
  if plan.lost = [] && plan.delayed = [] then
    { source = plan; c_n = n; cfates = Quiet }
  else
    match single_lost_src plan with
    | Some src ->
        let dsts =
          List.fold_left
            (fun acc (_, dst) -> Bitset.add (Pid.to_int dst) acc)
            Bitset.empty plan.lost
        in
        {
          source = plan;
          c_n = n;
          cfates = Single_lost { sl_src = Pid.to_int src; sl_dsts = dsts };
        }
    | None -> (
        match single_lost_dst plan with
        | Some dst ->
            let srcs =
              List.fold_left
                (fun acc (src, _) -> Bitset.add (Pid.to_int src) acc)
                Bitset.empty plan.lost
            in
            {
              source = plan;
              c_n = n;
              cfates = Single_dst { sd_dst = Pid.to_int dst; sd_srcs = srcs };
            }
        | None ->
            let fates = Array.make (n * n) Same_round in
            let slot src dst =
              ((Pid.to_int src - 1) * n) + (Pid.to_int dst - 1)
            in
            List.iter
              (fun (src, dst) -> fates.(slot src dst) <- Lost)
              plan.lost;
            List.iter
              (fun (src, dst, until) ->
                fates.(slot src dst) <- Delayed_until until)
              plan.delayed;
            { source = plan; c_n = n; cfates = Table fates })

let compiled_empty_plan = { source = empty_plan; c_n = 0; cfates = Quiet }
let compiled_source c = c.source
let compiled_fates c = c.cfates
let compiled_fate c ~src ~dst =
  match c.cfates with
  | Quiet -> Same_round
  | Single_lost { sl_src; sl_dsts } ->
      if Pid.to_int src = sl_src && Bitset.mem (Pid.to_int dst) sl_dsts
      then Lost
      else Same_round
  | Single_dst { sd_dst; sd_srcs } ->
      if Pid.to_int dst = sd_dst && Bitset.mem (Pid.to_int src) sd_srcs
      then Lost
      else Same_round
  | Table fates -> fates.(((Pid.to_int src - 1) * c.c_n) + (Pid.to_int dst - 1))

(* The minimal round from which every later round satisfies the synchrony
   clauses: no loss or delay except for messages sent in their sender's crash
   round. *)
let effective_gst s =
  let violates k plan =
    let crashing src = crash_round s src = Some (Round.of_int k) in
    List.exists
      (fun (src, dst) ->
        not (crashing src || omission_justified s ~src ~dst))
      plan.lost
    || List.exists (fun (src, _, _) -> not (crashing src)) plan.delayed
  in
  let last_violation = ref 0 in
  Array.iteri
    (fun i plan -> if violates (i + 1) plan then last_violation := i + 1)
    s.plans;
  Round.of_int (!last_violation + 1)

let synchronous s = Round.equal (effective_gst s) Round.first

let synchronous_after s round =
  Round.to_int (effective_gst s) <= Round.to_int round + 1

let failure_free_synchronous s =
  synchronous s && crash_count s = 0 && omit_count s = 0

(* ------------------------------------------------------------------ *)
(* Validation                                                          *)

exception Bad of string

let bad fmt = Format.kasprintf (fun msg -> raise (Bad msg)) fmt

(* Every out-of-range-pid message names the round the offending entry sits
   in ([round 0] for round-independent declarations such as omitters), so a
   rejected generated schedule is diagnosable without dumping it. *)
let check_pid config ~round:k what p =
  let i = Pid.to_int p in
  if i < 1 || i > Config.n config then
    bad "round %d: %s references %a, outside p1..p%d" k what Pid.pp p
      (Config.n config)

let validate_omitters config s =
  Pid.Map.iter
    (fun p cls ->
      let i = Pid.to_int p in
      if i < 1 || i > Config.n config then
        bad "%s-omitter declaration references %a, outside p1..p%d"
          (Model.omission_to_string cls)
          Pid.pp p (Config.n config))
    s.omitters;
  match s.budget with
  | None ->
      (* Soundness without an explicit budget: the distinct faulty set —
         crash victims and omitters together — must fit the algorithm's
         design threshold t. *)
      let faulty_or_omitting =
        Pid.Map.fold
          (fun p _ acc -> Pid.Set.add p acc)
          s.crash_rounds (omitter_set s)
      in
      let f = Pid.Set.cardinal faulty_or_omitting in
      if f > Config.t config then
        bad "%d distinct faulty processes (crashed or omitting) but t = %d" f
          (Config.t config)
  | Some { Model.t_crash; t_omit } ->
      if t_crash + t_omit > Config.t config then
        bad "budget %d+%d exceeds t = %d (soundness: t_crash + t_omit <= t)"
          t_crash t_omit (Config.t config);
      if crash_count s > t_crash then
        bad "%d crashes but the budget allows t_crash = %d" (crash_count s)
          t_crash;
      if omit_count s > t_omit then
        bad "%d omitters but the budget allows t_omit = %d" (omit_count s)
          t_omit

let validate_structure config s =
  let n = Config.n config in
  let seen_crash = Pid.Tbl.create n in
  Array.iteri
    (fun idx plan ->
      let k = idx + 1 in
      let round = Round.of_int k in
      let crashed_before p =
        match crash_round s p with
        | Some r -> Round.(r < round)
        | None -> false
      in
      List.iter
        (fun victim ->
          check_pid config ~round:k "crash" victim;
          if Pid.Tbl.mem seen_crash victim then
            bad "%a crashes twice (second time in round %d)" Pid.pp victim k;
          Pid.Tbl.add seen_crash victim round)
        plan.crashes;
      let check_entry what src dst =
        check_pid config ~round:k what src;
        check_pid config ~round:k what dst;
        if Pid.equal src dst then
          bad "round %d: %s entry for %a's own message (a process always \
               receives its own message)"
            k what Pid.pp src;
        if crashed_before src then
          bad "round %d: %s entry for %a which crashed earlier" k what Pid.pp
            src
        (* Entries towards an already-crashed receiver are moot — the
           receiver can never receive anything — and are tolerated because
           natural generators emit them. *)
      in
      List.iter (fun (src, dst) -> check_entry "lost" src dst) plan.lost;
      List.iter
        (fun (src, dst, until) ->
          check_entry "delayed" src dst;
          if Round.(until <= round) then
            bad "round %d: delayed message to %a scheduled for round %d, not \
                 strictly later"
              k Pid.pp dst (Round.to_int until))
        plan.delayed;
      (* No duplicate (src, dst) verdicts within a round. *)
      let pairs =
        List.map (fun (s', d) -> (s', d)) plan.lost
        @ List.map (fun (s', d, _) -> (s', d)) plan.delayed
      in
      let sorted =
        List.sort
          (fun (a, b) (c, d) ->
            match Pid.compare a c with 0 -> Pid.compare b d | cmp -> cmp)
          pairs
      in
      let rec check_dups = function
        | (a, b) :: ((c, d) :: _ as rest) ->
            if Pid.equal a c && Pid.equal b d then
              bad "round %d: two fates for the message %a -> %a" k Pid.pp a
                Pid.pp b;
            check_dups rest
        | _ -> ()
      in
      check_dups sorted)
    s.plans;
  if Pid.Tbl.length seen_crash > Config.t config then
    bad "%d crashes but t = %d" (Pid.Tbl.length seen_crash) (Config.t config)

let validate_fates s =
  Array.iteri
    (fun idx plan ->
      let k = idx + 1 in
      let round = Round.of_int k in
      let crashing src = crash_round s src = Some round in
      let before_gst = Round.(round < s.gst) in
      List.iter
        (fun (src, dst) ->
          (* Declared omission faults justify a loss in every model: the
             message is dropped at the faulty process's doorstep, not by
             the network. *)
          if not (omission_justified s ~src ~dst) then
            match s.model with
            | Model.Scs ->
                if not (crashing src) then
                  bad
                    "round %d: SCS loses the message %a -> %a, but %a does \
                     not crash in that round and neither end is a declared \
                     omitter"
                    k Pid.pp src Pid.pp dst Pid.pp src
            | Model.Es ->
                let src_faulty = crash_round s src <> None in
                if not (crashing src || (before_gst && src_faulty)) then
                  bad
                    "round %d: ES loses the message %a -> %a, but %a is %s, \
                     the round is %s gst, and neither end is a declared \
                     omitter"
                    k Pid.pp src Pid.pp dst Pid.pp src
                    (if src_faulty then "faulty" else "correct")
                    (if before_gst then "before" else "at/after")
            | Model.Dls_basic ->
                (* No reliable channels before the stabilisation round: any
                   message may be lost. *)
                if not (before_gst || crashing src) then
                  bad
                    "round %d: DLS loses the message %a -> %a after the \
                     stabilisation round outside %a's crash round"
                    k Pid.pp src Pid.pp dst Pid.pp src)
        plan.lost;
      List.iter
        (fun (src, _, _) ->
          match s.model with
          | Model.Scs -> bad "round %d: SCS never delays messages" k
          | Model.Dls_basic ->
              bad
                "round %d: the DLS basic round model loses delayed messages \
                 instead of delivering them late"
                k
          | Model.Es ->
              if not (before_gst || crashing src) then
                bad
                  "round %d: ES delays a message from %a after gst outside \
                   its crash round"
                  k Pid.pp src)
        plan.delayed)
    s.plans

let validate_resilience config s =
  match s.model with
  | Model.Scs | Model.Dls_basic -> () (* t-resilience is an ES axiom only *)
  | Model.Es ->
      let n = Config.n config in
      let quorum = Config.quorum config in
      let all = Pid.all ~n in
      Array.iteri
        (fun idx plan ->
          let k = idx + 1 in
          let round = Round.of_int k in
          let alive_at_start p =
            match crash_round s p with
            | Some r -> Round.(r >= round)
            | None -> true
          in
          let completes p =
            match crash_round s p with
            | Some r -> Round.(r > round)
            | None -> true
          in
          let senders = List.filter alive_at_start all in
          List.iter
            (fun dst ->
              (* t-resilience is a promise made to correct processes; a
                 declared omitter (receive-omitters especially) may be
                 starved below the quorum without leaving the model. *)
              if completes dst && not (Pid.Map.mem dst s.omitters) then begin
                let received =
                  Listx.count
                    (fun src ->
                      Pid.equal src dst
                      || fate s ~src ~dst ~round = Same_round)
                    senders
                in
                if received < quorum then
                  bad
                    "round %d: %a receives only %d current-round messages, \
                     t-resilience requires %d"
                    k Pid.pp dst received quorum
              end)
            all;
          ignore plan)
        s.plans

let validate config s =
  try
    if Round.to_int s.gst < 1 then bad "gst must be >= 1";
    (match s.model with
    | Model.Scs ->
        if not (Round.equal s.gst Round.first) then
          bad "SCS schedules must have gst = 1"
    | Model.Es | Model.Dls_basic -> ());
    validate_omitters config s;
    validate_structure config s;
    validate_fates s;
    validate_resilience config s;
    Ok ()
  with Bad msg -> Error msg

let validate_exn config s =
  match validate config s with
  | Ok () -> ()
  | Error msg -> invalid_arg ("Schedule.validate: " ^ msg)

let pp_plan ppf (k, plan) =
  let pp_pair ppf (a, b) = Format.fprintf ppf "%a->%a" Pid.pp a Pid.pp b in
  let pp_delay ppf (a, b, r) =
    Format.fprintf ppf "%a->%a@@%d" Pid.pp a Pid.pp b (Round.to_int r)
  in
  Format.fprintf ppf "@[<h>r%d:" k;
  if plan.crashes <> [] then
    Format.fprintf ppf " crash=%a"
      (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.fprintf ppf ",")
         Pid.pp)
      plan.crashes;
  if plan.lost <> [] then
    Format.fprintf ppf " lost=[%a]"
      (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.fprintf ppf "; ")
         pp_pair)
      plan.lost;
  if plan.delayed <> [] then
    Format.fprintf ppf " delayed=[%a]"
      (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.fprintf ppf "; ")
         pp_delay)
      plan.delayed;
  if plan.crashes = [] && plan.lost = [] && plan.delayed = [] then
    Format.fprintf ppf " quiet";
  Format.fprintf ppf "@]"

let pp_omitter ppf (p, cls) =
  Format.fprintf ppf "%a:%a" Pid.pp p Model.pp_omission cls

let pp ppf s =
  Format.fprintf ppf "@[<v>%a schedule, gst=%d%a%a, %d planned round(s)%a@]"
    Model.pp s.model (Round.to_int s.gst)
    (fun ppf () ->
      match omitters s with
      | [] -> ()
      | os ->
          Format.fprintf ppf ", omit=[%a]"
            (Format.pp_print_list
               ~pp_sep:(fun ppf () -> Format.fprintf ppf "; ")
               pp_omitter)
            os)
    ()
    (fun ppf () ->
      match s.budget with
      | None -> ()
      | Some b -> Format.fprintf ppf ", budget=%a" Model.pp_budget b)
    ()
    (horizon s)
    (fun ppf () ->
      Array.iteri
        (fun i plan -> Format.fprintf ppf "@,  %a" pp_plan (i + 1, plan))
        s.plans)
    ()
