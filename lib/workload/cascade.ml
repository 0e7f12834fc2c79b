open Kernel

let chain config =
  let n = Config.n config and t = Config.t config in
  Sim.Schedule.make ~model:Sim.Model.Es ~gst:Round.first
    (List.map
       (fun k ->
         Sim.Schedule.crash ~n
           ~heard_by:(Pid.Set.of_ints [ k + 1 ])
           (Pid.of_int k))
       (Listx.range 1 t))

(* Victims crashing in the same round: their plans side by side. *)
let both (a : Sim.Schedule.plan) (b : Sim.Schedule.plan) =
  { a with crashes = a.crashes @ b.crashes; lost = a.lost @ b.lost }

let silent_crashes config ~rounds =
  let n = Config.n config in
  let horizon =
    List.fold_left (fun acc r -> max acc (Round.to_int r)) 0 rounds
  in
  let victims = List.mapi (fun i r -> (Pid.of_int (i + 1), r)) rounds in
  let plan_for k =
    List.fold_left
      (fun plan (v, r) ->
        if Round.to_int r <> k then plan
        else both plan (Sim.Schedule.crash ~n ~heard_by:Pid.Set.empty v))
      Sim.Schedule.empty_plan victims
  in
  Sim.Schedule.make ~model:Sim.Model.Es ~gst:Round.first
    (List.map plan_for (Listx.range 1 horizon))

let coordinator_killer config ~phase_rounds =
  if phase_rounds < 1 then
    invalid_arg "Cascade.coordinator_killer: phases need at least one round";
  let t = Config.t config in
  let rounds =
    List.map
      (fun phase -> Round.of_int ((phase * phase_rounds) + 1))
      (Listx.range 0 (t - 1))
  in
  silent_crashes config ~rounds

let leader_killer config ~f ~stride ~start =
  if f > Config.t config then
    invalid_arg "Cascade.leader_killer: more crashes than t";
  if stride < 1 then invalid_arg "Cascade.leader_killer: stride must be >= 1";
  let rounds =
    List.map
      (fun i -> Round.add start (i * stride))
      (Listx.range 0 (f - 1))
  in
  (* silent_crashes kills the lowest ids first, which are exactly the
     successive min-id leaders. *)
  silent_crashes config ~rounds

let minority_keeper config ~f =
  let n = Config.n config and t = Config.t config in
  if f < 1 || f > t then
    invalid_arg "Cascade.minority_keeper: needs 1 <= f <= t";
  let heard_by r =
    Pid.Set.of_ints (if r = 1 then Listx.range 2 (t + 2) else [ r + 1 ])
  in
  Sim.Schedule.make ~model:Sim.Model.Es ~gst:Round.first
    (List.map
       (fun r -> Sim.Schedule.crash ~n ~heard_by:(heard_by r) (Pid.of_int r))
       (Listx.range 1 f))

let split_brain config ~k ~f =
  let n = Config.n config and t = Config.t config in
  if f > t then invalid_arg "Cascade.split_brain: f exceeds t";
  let low_block = Pid.Set.of_ints (Listx.range 1 (t + 1)) in
  (* Rounds 1..k: p1's messages reach the high block only at round k+1. *)
  let prefix_plan =
    Sim.Schedule.delay ~n ~except:low_block (Pid.of_int 1)
      ~until:(Round.of_int (k + 1))
  in
  (* Round k+i: p_i crashes, delivering only to the rest of the low
     block. *)
  let crash_plan i =
    let victim = Pid.of_int i in
    Sim.Schedule.crash ~n
      ~heard_by:(Pid.Set.filter (fun p -> Pid.compare p victim > 0) low_block)
      victim
  in
  Sim.Schedule.make ~model:Sim.Model.Es ~gst:(Round.of_int (k + 1))
    (List.map (fun _ -> prefix_plan) (Listx.range 1 k)
    @ List.map crash_plan (Listx.range 1 f))

let split_then_minority config ~k ~f =
  let prefix = Sim.Schedule.plans (split_brain config ~k ~f:0) in
  let crashes =
    if f = 0 then [] else Sim.Schedule.plans (minority_keeper config ~f)
  in
  Sim.Schedule.make ~model:Sim.Model.Es
    ~gst:(Kernel.Round.of_int (k + 1))
    (prefix @ crashes)
