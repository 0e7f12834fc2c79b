open Kernel

type choice =
  | No_crash
  | Crash of { victim : Pid.t; receivers : Pid.Set.t }
  | Send_omit of { culprit : Pid.t; dropped : Pid.Set.t }
  | Recv_omit of { culprit : Pid.t; dropped : Pid.Set.t }

let pp_choice ppf = function
  | No_crash -> Format.pp_print_string ppf "-"
  | Crash { victim; receivers } ->
      Format.fprintf ppf "%a!%a" Pid.pp victim Pid.Set.pp receivers
  | Send_omit { culprit; dropped } ->
      Format.fprintf ppf "%a->x%a" Pid.pp culprit Pid.Set.pp dropped
  | Recv_omit { culprit; dropped } ->
      Format.fprintf ppf "%a<-x%a" Pid.pp culprit Pid.Set.pp dropped

type policy = All_subsets | Prefixes

let receiver_sets ~policy ~survivors =
  match policy with
  | All_subsets -> List.map Pid.Set.of_list (Listx.subsets survivors)
  | Prefixes -> List.map Pid.Set.of_list (Listx.prefixes survivors)

(* Non-empty target sets for an omission act: the empty set would make the
   choice a round-shaped duplicate of [No_crash]. *)
let dropped_sets ~policy ~others =
  List.filter
    (fun s -> not (Pid.Set.is_empty s))
    (receiver_sets ~policy ~survivors:others)

let crash_choices ~policy ~alive ~omitters =
  (* The enumeration keeps crash victims and omitters disjoint: once the
     adversary fixes a process's fault class it stays in that class, so
     every budget unit buys one distinct faulty process. *)
  let victims =
    Pid.Set.elements
      (if Pid.Set.is_empty omitters then alive
       else Pid.Set.diff alive omitters)
  in
  List.concat_map
    (fun victim ->
      let survivors = Pid.Set.elements (Pid.Set.remove victim alive) in
      List.map
        (fun receivers -> Crash { victim; receivers })
        (receiver_sets ~policy ~survivors))
    victims

let omission_choices ~policy ~alive ~declared ~all_omitters ~omit_left mk =
  (* Declared culprits of this class re-offend for free; a fresh culprit
     (not yet faulty in any class) costs one unit of the omission budget. *)
  let declared_alive = Pid.Set.inter declared alive in
  let fresh =
    if omit_left > 0 then Pid.Set.diff alive all_omitters else Pid.Set.empty
  in
  let culprits = Pid.Set.elements (Pid.Set.union declared_alive fresh) in
  List.concat_map
    (fun culprit ->
      let others = Pid.Set.elements (Pid.Set.remove culprit alive) in
      List.map
        (fun dropped -> mk culprit dropped)
        (dropped_sets ~policy ~others))
    culprits

let choices ?(faults = Sim.Model.Crash_only) ?(send_omitters = Pid.Set.empty)
    ?(recv_omitters = Pid.Set.empty) ?(omit_left = 0) ~policy ~alive
    ~crashes_left () =
  let all_omitters = Pid.Set.union send_omitters recv_omitters in
  let crashes =
    match faults with
    | Sim.Model.Crash_only | Sim.Model.Mixed ->
        if crashes_left <= 0 then []
        else crash_choices ~policy ~alive ~omitters:all_omitters
    | Sim.Model.Send_omit_only | Sim.Model.Recv_omit_only -> []
  in
  let send_omits =
    match faults with
    | Sim.Model.Send_omit_only | Sim.Model.Mixed ->
        omission_choices ~policy ~alive ~declared:send_omitters ~all_omitters
          ~omit_left (fun culprit dropped -> Send_omit { culprit; dropped })
    | Sim.Model.Crash_only | Sim.Model.Recv_omit_only -> []
  in
  let recv_omits =
    match faults with
    | Sim.Model.Recv_omit_only | Sim.Model.Mixed ->
        omission_choices ~policy ~alive ~declared:recv_omitters ~all_omitters
          ~omit_left (fun culprit dropped -> Recv_omit { culprit; dropped })
    | Sim.Model.Crash_only | Sim.Model.Send_omit_only -> []
  in
  No_crash :: (crashes @ send_omits @ recv_omits)

(* ------------------------------------------------------------------ *)
(* Adversary state                                                     *)

type adversary = {
  alive : Pid.Set.t;
  crashes_left : int;
  send_omitters : Pid.Set.t;
  recv_omitters : Pid.Set.t;
  omit_left : int;
}

let budget_of ?omit_budget ~faults config =
  match faults with
  | Sim.Model.Crash_only -> None
  | _ -> Some (Sim.Model.split_budget ?omit_budget ~faults config)

let initial ?omit_budget ?(faults = Sim.Model.Crash_only) config =
  let { Sim.Model.t_crash; t_omit } =
    Sim.Model.split_budget ?omit_budget ~faults config
  in
  {
    alive = Pid.Set.universe ~n:(Config.n config);
    crashes_left = t_crash;
    send_omitters = Pid.Set.empty;
    recv_omitters = Pid.Set.empty;
    omit_left = t_omit;
  }

let advance adv = function
  | No_crash -> adv
  | Crash { victim; _ } ->
      {
        adv with
        alive = Pid.Set.remove victim adv.alive;
        crashes_left = adv.crashes_left - 1;
      }
  | Send_omit { culprit; _ } ->
      if Pid.Set.mem culprit adv.send_omitters then adv
      else
        {
          adv with
          send_omitters = Pid.Set.add culprit adv.send_omitters;
          omit_left = adv.omit_left - 1;
        }
  | Recv_omit { culprit; _ } ->
      if Pid.Set.mem culprit adv.recv_omitters then adv
      else
        {
          adv with
          recv_omitters = Pid.Set.add culprit adv.recv_omitters;
          omit_left = adv.omit_left - 1;
        }

let adversary_choices ~policy ~faults adv =
  choices ~faults ~send_omitters:adv.send_omitters
    ~recv_omitters:adv.recv_omitters ~omit_left:adv.omit_left ~policy
    ~alive:adv.alive ~crashes_left:adv.crashes_left ()

(* ------------------------------------------------------------------ *)
(* Denotation                                                          *)

let plan_of config = function
  | No_crash -> Sim.Schedule.empty_plan
  | Crash { victim; receivers } ->
      Sim.Schedule.crash ~n:(Config.n config) ~heard_by:receivers victim
  | Send_omit { culprit; dropped } ->
      {
        Sim.Schedule.crashes = [];
        lost = List.map (fun dst -> (culprit, dst)) (Pid.Set.elements dropped);
        delayed = [];
      }
  | Recv_omit { culprit; dropped } ->
      {
        Sim.Schedule.crashes = [];
        lost = List.map (fun src -> (src, culprit)) (Pid.Set.elements dropped);
        delayed = [];
      }

let omitters_of choices =
  List.fold_left
    (fun acc choice ->
      match choice with
      | No_crash | Crash _ -> acc
      | Send_omit { culprit; _ } ->
          if List.mem_assoc culprit acc then acc
          else acc @ [ (culprit, Sim.Model.Send_omit) ]
      | Recv_omit { culprit; _ } ->
          if List.mem_assoc culprit acc then acc
          else acc @ [ (culprit, Sim.Model.Recv_omit) ])
    [] choices

let to_schedule ?budget config choices =
  Sim.Schedule.make ~omitters:(omitters_of choices) ?budget
    ~model:Sim.Model.Es ~gst:Round.first
    (List.map (plan_of config) choices)
