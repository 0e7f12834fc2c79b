open Kernel

(* Every operator edits the plan list of a parsed schedule and rebuilds it
   with [Sim.Schedule.make]; [mutate] then re-validates against the model
   and falls back to another operator draw when the edit was illegal. The
   operators never need to be legality-aware themselves, which keeps them
   simple and lets the validator stay the single source of truth. *)

type op =
  | Add_crash
  | Drop_crash
  | Move_crash
  | Flip_fate
  | Drop_loss
  | Drop_delay
  | Add_delay
  | Add_loss
  | Shift_gst
  | Add_omitter
  | Drop_omitter
  | Add_omit_loss

let all_ops =
  [
    Add_crash;
    Drop_crash;
    Move_crash;
    Flip_fate;
    Drop_loss;
    Drop_delay;
    Add_delay;
    Add_loss;
    Shift_gst;
    Add_omitter;
    Drop_omitter;
    Add_omit_loss;
  ]

let pp_op ppf op =
  Format.pp_print_string ppf
    (match op with
    | Add_crash -> "add-crash"
    | Drop_crash -> "drop-crash"
    | Move_crash -> "move-crash"
    | Flip_fate -> "flip-fate"
    | Drop_loss -> "drop-loss"
    | Drop_delay -> "drop-delay"
    | Add_delay -> "add-delay"
    | Add_loss -> "add-loss"
    | Shift_gst -> "shift-gst"
    | Add_omitter -> "add-omitter"
    | Drop_omitter -> "drop-omitter"
    | Add_omit_loss -> "add-omit-loss")

(* Plans as a mutable-length list: pad so round [k] exists, then edit it. *)
let pad plans k =
  let len = List.length plans in
  if len >= k then plans
  else plans @ List.init (k - len) (fun _ -> Sim.Schedule.empty_plan)

let update_round plans k f =
  List.mapi
    (fun i (p : Sim.Schedule.plan) -> if i = k - 1 then f p else p)
    (pad plans k)

(* Every (round, entry) pair of one plan field, for uniform picking. *)
let entries field plans =
  List.concat
    (List.mapi (fun i p -> List.map (fun e -> (i + 1, e)) (field p)) plans)

let losses = entries (fun (p : Sim.Schedule.plan) -> p.lost)
let delays = entries (fun (p : Sim.Schedule.plan) -> p.delayed)
let crashes = entries (fun (p : Sim.Schedule.plan) -> p.crashes)

(* Remove a victim's crash from round [k] together with the same-round fate
   entries it justified — leaving them would orphan losses on a correct
   sender, which no model admits. *)
let remove_crash plans k victim =
  update_round plans k (fun p ->
      {
        Sim.Schedule.crashes =
          List.filter (fun v -> not (Pid.equal v victim)) p.Sim.Schedule.crashes;
        lost =
          List.filter
            (fun (src, _) -> not (Pid.equal src victim))
            p.Sim.Schedule.lost;
        delayed =
          List.filter
            (fun (src, _, _) -> not (Pid.equal src victim))
            p.Sim.Schedule.delayed;
      })

(* The removal edits, shared with {!Fuzz.Shrink}: every result of one
   [Drop_*] operator, in plan order. A crash leaves with its same-round
   entries ([remove_crash]); a declaration leaves with every lost entry it
   licensed (its outgoing copies for a send-omitter, its incoming ones for
   a receive-omitter), since orphaned omission losses on a now-correct
   process would just be rejected. *)
let drops op schedule =
  let plans = Sim.Schedule.plans schedule in
  let omitters0 = Sim.Schedule.omitters schedule in
  let rebuild ?(omitters = omitters0) plans =
    Sim.Schedule.make ~omitters
      ?budget:(Sim.Schedule.budget schedule)
      ~model:(Sim.Schedule.model schedule) ~gst:(Sim.Schedule.gst schedule)
      plans
  in
  match op with
  | Drop_crash ->
      List.map
        (fun (k, victim) -> rebuild (remove_crash plans k victim))
        (crashes plans)
  | Drop_omitter ->
      List.map
        (fun (culprit, cls) ->
          let licensed (src, dst) =
            match cls with
            | Sim.Model.Send_omit -> Pid.equal src culprit
            | Sim.Model.Recv_omit -> Pid.equal dst culprit
          in
          rebuild
            ~omitters:
              (List.filter (fun (p, _) -> not (Pid.equal p culprit)) omitters0)
            (List.map
               (fun (p : Sim.Schedule.plan) ->
                 {
                   p with
                   lost = List.filter (fun e -> not (licensed e)) p.lost;
                 })
               plans))
        omitters0
  | Drop_loss ->
      List.map
        (fun (k, entry) ->
          rebuild
            (update_round plans k (fun p ->
                 { p with lost = List.filter (fun e -> e <> entry) p.lost })))
        (losses plans)
  | Drop_delay ->
      List.map
        (fun (k, entry) ->
          rebuild
            (update_round plans k (fun p ->
                 {
                   p with
                   delayed = List.filter (fun e -> e <> entry) p.delayed;
                 })))
        (delays plans)
  | Add_crash | Move_crash | Flip_fate | Add_delay | Add_loss | Shift_gst
  | Add_omitter | Add_omit_loss ->
      []

let apply_op rng config op schedule =
  let n = Config.n config and t = Config.t config in
  let plans = Sim.Schedule.plans schedule in
  let horizon = max 1 (Sim.Schedule.horizon schedule) in
  let gst = Round.to_int (Sim.Schedule.gst schedule) in
  let model = Sim.Schedule.model schedule in
  let omitters0 = Sim.Schedule.omitters schedule in
  let budget = Sim.Schedule.budget schedule in
  let rebuild ?(gst = gst) ?(omitters = omitters0) plans =
    Sim.Schedule.make ~omitters ?budget ~model ~gst:(Round.of_int gst) plans
  in
  let random_pid () = Pid.of_int (Rng.int_in rng 1 n) in
  match op with
  | Drop_crash | Drop_omitter | Drop_loss | Drop_delay ->
      Rng.pick_opt rng (drops op schedule)
  | Add_crash ->
      if Sim.Schedule.crash_count schedule >= t then None
      else begin
        let alive =
          List.filter
            (fun p -> Sim.Schedule.crash_round schedule p = None)
            (Config.processes config)
        in
        match Rng.pick_opt rng alive with
        | None -> None
        | Some victim ->
            let k = Rng.int_in rng 1 (horizon + 1) in
            let heard_by =
              Pid.Set.of_list (Rng.subset rng (Pid.others ~n victim))
            in
            let crash = Sim.Schedule.crash ~n ~heard_by victim in
            Some
              (rebuild
                 (update_round plans k (fun p ->
                      {
                        p with
                        crashes = victim :: p.crashes;
                        lost = crash.lost @ p.lost;
                      })))
      end
  | Move_crash -> (
      match Rng.pick_opt rng (crashes plans) with
      | None -> None
      | Some (k, victim) ->
          let k' = Rng.int_in rng 1 (horizon + 1) in
          if k' = k then None
          else
            let plans = remove_crash plans k victim in
            Some
              (rebuild
                 (update_round plans k' (fun p ->
                      {
                        p with
                        Sim.Schedule.crashes = victim :: p.Sim.Schedule.crashes;
                      }))))
  | Flip_fate -> (
      let flips =
        List.map (fun e -> `To_delay e) (losses plans)
        @ List.map (fun e -> `To_loss e) (delays plans)
      in
      match Rng.pick_opt rng flips with
      | None -> None
      | Some (`To_delay (k, (src, dst))) ->
          let until = Round.of_int (k + 1 + Rng.int rng 3) in
          Some
            (rebuild
               (update_round plans k (fun p ->
                    {
                      p with
                      Sim.Schedule.lost =
                        List.filter (fun e -> e <> (src, dst)) p.Sim.Schedule.lost;
                      delayed = (src, dst, until) :: p.Sim.Schedule.delayed;
                    })))
      | Some (`To_loss (k, (src, dst, until))) ->
          Some
            (rebuild
               (update_round plans k (fun p ->
                    {
                      p with
                      Sim.Schedule.delayed =
                        List.filter
                          (fun e -> e <> (src, dst, until))
                          p.Sim.Schedule.delayed;
                      lost = (src, dst) :: p.Sim.Schedule.lost;
                    }))))
  | Add_delay ->
      let k = Rng.int_in rng 1 horizon in
      let src = random_pid () in
      let dst = random_pid () in
      if Pid.equal src dst then None
      else
        let until = Round.of_int (k + 1 + Rng.int rng 3) in
        Some
          (rebuild
             (update_round plans k (fun p ->
                  {
                    p with
                    Sim.Schedule.delayed =
                      (src, dst, until) :: p.Sim.Schedule.delayed;
                  })))
  | Add_loss -> (
      (* Only a crashing sender's messages may be lost, so pick among
         crash-round victims. *)
      match Rng.pick_opt rng (crashes plans) with
      | None -> None
      | Some (k, victim) ->
          let dst = Rng.pick rng (Pid.others ~n victim) in
          Some
            (rebuild
               (update_round plans k (fun p ->
                    {
                      p with
                      Sim.Schedule.lost = (victim, dst) :: p.Sim.Schedule.lost;
                    }))))
  | Shift_gst ->
      let gst' = if Rng.bool rng then gst + 1 else gst - 1 in
      if gst' < 1 || gst' > horizon + 2 then None
      else Some (rebuild ~gst:gst' plans)
  | Add_omitter -> (
      (* Declare a currently-correct process an omitter; the validator
         rejects the candidate when the budget (or [t]) is exhausted. *)
      let correct =
        List.filter
          (fun p ->
            Sim.Schedule.crash_round schedule p = None
            && Sim.Schedule.omitter_class schedule p = None)
          (Config.processes config)
      in
      match Rng.pick_opt rng correct with
      | None -> None
      | Some culprit ->
          let cls =
            if Rng.bool rng then Sim.Model.Send_omit else Sim.Model.Recv_omit
          in
          Some (rebuild ~omitters:((culprit, cls) :: omitters0) plans))
  | Add_omit_loss -> (
      (* Lose one more message an existing declaration licenses. *)
      match Rng.pick_opt rng omitters0 with
      | None -> None
      | Some (culprit, cls) ->
          let peer = Rng.pick rng (Pid.others ~n culprit) in
          let entry =
            match cls with
            | Sim.Model.Send_omit -> (culprit, peer)
            | Sim.Model.Recv_omit -> (peer, culprit)
          in
          let k = Rng.int_in rng 1 horizon in
          let p = List.nth (pad plans k) (k - 1) in
          if List.mem entry p.Sim.Schedule.lost then None
          else
            Some
              (rebuild
                 (update_round plans k (fun p ->
                      {
                        p with
                        Sim.Schedule.lost = entry :: p.Sim.Schedule.lost;
                      }))))

let mutate ?(tries = 16) rng config schedule =
  let rec attempt k =
    if k = 0 then schedule
    else
      let op = Rng.pick rng all_ops in
      match apply_op rng config op schedule with
      | None -> attempt (k - 1)
      | Some candidate -> (
          match Sim.Schedule.validate config candidate with
          | Ok () -> candidate
          | Error _ -> attempt (k - 1))
  in
  attempt tries

let generator ?(ops_per_run = 3) ~base config rng =
  let rec go k s = if k = 0 then s else go (k - 1) (mutate rng config s) in
  go (1 + Rng.int rng (max 1 ops_per_run)) base
