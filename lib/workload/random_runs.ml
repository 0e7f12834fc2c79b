open Kernel

type crash_plan = (Pid.t * int) list (* victim, round *)

let random_crashes rng config ~max_crashes ~horizon : crash_plan =
  let count = Rng.int_in rng 0 max_crashes in
  let victims = Rng.sample rng count (Config.processes config) in
  List.map (fun v -> (v, Rng.int_in rng 1 (max 1 horizon))) victims

let crashed_before crashes k =
  Listx.count (fun (_, r) -> r < k) crashes

let crashing_at crashes k = List.filter_map
    (fun (v, r) -> if r = k then Some v else None)
    crashes

let alive_at_start crashes config k =
  List.filter
    (fun p -> not (List.exists (fun (v, r) -> Pid.equal v p && r < k) crashes))
    (Config.processes config)

(* Synchronous runs: only crash-round messages are tampered with. [fate]
   decides what happens to each withheld copy. *)
let synchronous_like rng config ~max_crashes ~horizon ~fate =
  let crashes = random_crashes rng config ~max_crashes ~horizon in
  let n = Config.n config in
  let plan_for k =
    let victims = crashing_at crashes k in
    let lost = ref [] and delayed = ref [] in
    List.iter
      (fun victim ->
        List.iter
          (fun dst ->
            if Rng.bool rng then
              match fate rng k with
              | `Lost -> lost := (victim, dst) :: !lost
              | `Delayed until ->
                  delayed := (victim, dst, Round.of_int until) :: !delayed)
          (Pid.others ~n victim))
      victims;
    { Sim.Schedule.crashes = victims; lost = !lost; delayed = !delayed }
  in
  Sim.Schedule.make ~model:Sim.Model.Es ~gst:Round.first
    (List.map plan_for (Listx.range 1 horizon))

(* Omission-faulty synchronous runs. Crash victims and declared omitters
   stay disjoint (the budget buys distinct faulty processes), and every
   omission loss is licensed by a declaration, so the schedules validate by
   construction: a correct receiver loses at most (crashes so far +
   send-omitters) <= t senders per round, which keeps the ES quorum. *)
let with_omissions rng config ?(faults = Sim.Model.Mixed) ?omit_budget
    ?max_crashes ?horizon () =
  let ({ Sim.Model.t_crash; t_omit } as budget) =
    Sim.Model.split_budget ?omit_budget ~faults config
  in
  let max_crashes = min (Option.value max_crashes ~default:t_crash) t_crash in
  let horizon = Option.value horizon ~default:(Config.t config + 3) in
  let crashes = random_crashes rng config ~max_crashes ~horizon in
  let n = Config.n config in
  let omitters =
    let non_victims =
      List.filter
        (fun p -> not (List.exists (fun (v, _) -> Pid.equal v p) crashes))
        (Config.processes config)
    in
    let count = if t_omit = 0 then 0 else Rng.int_in rng 1 t_omit in
    List.map
      (fun p ->
        let cls =
          match faults with
          | Sim.Model.Send_omit_only -> Sim.Model.Send_omit
          | Sim.Model.Recv_omit_only -> Sim.Model.Recv_omit
          | Sim.Model.Crash_only | Sim.Model.Mixed ->
              if Rng.bool rng then Sim.Model.Send_omit
              else Sim.Model.Recv_omit
        in
        (p, cls))
      (Rng.sample rng count non_victims)
  in
  let plan_for k =
    let victims = crashing_at crashes k in
    let lost = ref [] in
    List.iter
      (fun victim ->
        List.iter
          (fun dst -> if Rng.bool rng then lost := (victim, dst) :: !lost)
          (Pid.others ~n victim))
      victims;
    let alive = alive_at_start crashes config k in
    List.iter
      (fun (culprit, cls) ->
        if Rng.bool rng then
          List.iter
            (fun peer ->
              if (not (Pid.equal peer culprit)) && Rng.bool rng then
                let entry =
                  match cls with
                  | Sim.Model.Send_omit -> (culprit, peer)
                  | Sim.Model.Recv_omit -> (peer, culprit)
                in
                if not (List.mem entry !lost) then lost := entry :: !lost)
            alive)
      omitters;
    { Sim.Schedule.crashes = victims; lost = !lost; delayed = [] }
  in
  Sim.Schedule.make ~omitters ~budget ~model:Sim.Model.Es ~gst:Round.first
    (List.map plan_for (Listx.range 1 horizon))

let synchronous rng config ?max_crashes ?horizon () =
  let max_crashes = Option.value max_crashes ~default:(Config.t config) in
  let horizon = Option.value horizon ~default:(Config.t config + 3) in
  synchronous_like rng config ~max_crashes ~horizon ~fate:(fun _ _ -> `Lost)

let synchronous_with_delays rng config ?max_crashes ?horizon () =
  let max_crashes = Option.value max_crashes ~default:(Config.t config) in
  let horizon = Option.value horizon ~default:(Config.t config + 3) in
  synchronous_like rng config ~max_crashes ~horizon ~fate:(fun rng k ->
      if Rng.bool rng then `Lost else `Delayed (k + 1 + Rng.int rng 3))

(* Pre-gst rounds: withhold up to the t-resilience slack from each receiver. *)
let async_round rng config ~crashes ~k ~gst ~max_delay ~pick_withheld =
  let victims = crashing_at crashes k in
  let alive = alive_at_start crashes config k in
  let budget = Config.t config - crashed_before crashes k in
  let lost = ref [] and delayed = ref [] in
  List.iter
    (fun dst ->
      let candidates = List.filter (fun p -> not (Pid.equal p dst)) alive in
      let withheld = pick_withheld rng budget candidates in
      List.iter
        (fun src ->
          let faulty = List.exists (fun (v, _) -> Pid.equal v src) crashes in
          let may_lose = faulty && (k < gst || List.exists (Pid.equal src) victims) in
          if may_lose && Rng.bool rng then lost := (src, dst) :: !lost
          else
            delayed :=
              (src, dst, Round.of_int (k + 1 + Rng.int rng max_delay))
              :: !delayed)
        withheld)
    (List.filter
       (fun p ->
         not (List.exists (fun (v, r) -> Pid.equal v p && r <= k) crashes))
       (Config.processes config));
  { Sim.Schedule.crashes = victims; lost = !lost; delayed = !delayed }

let eventually_synchronous rng config ?max_crashes ~gst ?(max_delay = 3) () =
  let max_crashes = Option.value max_crashes ~default:(Config.t config) in
  let horizon = gst + 2 in
  let crashes = random_crashes rng config ~max_crashes ~horizon in
  let pick_withheld rng budget candidates =
    let count = if budget <= 0 then 0 else Rng.int_in rng 0 budget in
    Rng.sample rng count candidates
  in
  let plan_for k =
    if k < gst then
      async_round rng config ~crashes ~k ~gst ~max_delay ~pick_withheld
    else
      (* Synchronous round: only crash-round messages may be lost. *)
      let victims = crashing_at crashes k in
      let lost = ref [] in
      List.iter
        (fun victim ->
          List.iter
            (fun dst -> if Rng.bool rng then lost := (victim, dst) :: !lost)
            (Pid.others ~n:(Config.n config) victim))
        victims;
      { Sim.Schedule.crashes = victims; lost = !lost; delayed = [] }
  in
  Sim.Schedule.make ~model:Sim.Model.Es ~gst:(Round.of_int gst)
    (List.map plan_for (Listx.range 1 horizon))

let dls_basic rng config ?max_crashes ~gst ?(loss_rate_percent = 30) () =
  let max_crashes = Option.value max_crashes ~default:(Config.t config) in
  let horizon = gst + 1 in
  let crashes = random_crashes rng config ~max_crashes ~horizon in
  let n = Config.n config in
  let plan_for k =
    let victims = crashing_at crashes k in
    let alive = alive_at_start crashes config k in
    let lost = ref [] in
    List.iter
      (fun src ->
        List.iter
          (fun dst ->
            if not (Pid.equal src dst) then
              let crashing = List.exists (Pid.equal src) victims in
              let may_lose = k < gst || crashing in
              if may_lose && Rng.int rng 100 < loss_rate_percent then
                lost := (src, dst) :: !lost)
          (Pid.all ~n))
      alive;
    { Sim.Schedule.crashes = victims; lost = !lost; delayed = [] }
  in
  Sim.Schedule.make ~model:Sim.Model.Dls_basic ~gst:(Round.of_int gst)
    (List.map plan_for (Listx.range 1 horizon))

let synchronous_after rng config ~k ~f ?(stall_low_ids = true) () =
  if f > Config.t config then
    invalid_arg "Random_runs.synchronous_after: f exceeds t";
  let n = Config.n config in
  (* Crashes: the f lowest ids, silently, one per round from k+1 on. *)
  let crashes =
    List.map (fun i -> (Pid.of_int i, k + i)) (Listx.range 1 f)
  in
  let pick_withheld rng budget candidates =
    if budget <= 0 then []
    else if stall_low_ids then Listx.take budget candidates
    else Rng.sample rng budget candidates
  in
  let plan_for round =
    if round <= k then
      async_round rng config ~crashes ~k:round ~gst:(k + 1) ~max_delay:2
        ~pick_withheld
    else
      match crashing_at crashes round with
      | [] -> Sim.Schedule.empty_plan
      | victims ->
          {
            Sim.Schedule.crashes = victims;
            lost =
              List.concat_map
                (fun v ->
                  List.map (fun dst -> (v, dst)) (Pid.others ~n v))
                victims;
            delayed = [];
          }
  in
  Sim.Schedule.make ~model:Sim.Model.Es
    ~gst:(Round.of_int (k + 1))
    (List.map plan_for (Listx.range 1 (k + f + 1)))
