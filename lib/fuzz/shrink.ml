open Kernel

type report = {
  schedule : Sim.Schedule.t;
  failure : Outcome.failure;
  steps : int;
  attempts : int;
}

let is_empty_plan (p : Sim.Schedule.plan) =
  p.Sim.Schedule.crashes = [] && p.Sim.Schedule.lost = []
  && p.Sim.Schedule.delayed = []

(* Dropping trailing empty plans is what turns "empty a late round" into a
   genuine horizon reduction. *)
let trim plans =
  let rec drop = function
    | p :: rest when is_empty_plan p -> drop rest
    | rest -> rest
  in
  List.rev (drop (List.rev plans))

(* All one-step reductions of a schedule, in the order the greedy loop
   should try them: empty whole rounds (latest first, so the horizon
   shrinks as early as possible), then {!Workload.Mutate.drops}' removal
   edits — single crashes with their same-round entries, whole omitter
   declarations with the losses they licensed, single lost and delayed
   entries — each re-trimmed, then pull gst one round earlier.
   Candidates are blind; the caller re-validates. *)
let candidates schedule =
  let plans = Sim.Schedule.plans schedule in
  let gst = Round.to_int (Sim.Schedule.gst schedule) in
  (* [s] with [plans], trailing empty rounds trimmed. *)
  let trimmed ?gst s plans =
    Sim.Schedule.make ~omitters:(Sim.Schedule.omitters s)
      ?budget:(Sim.Schedule.budget s) ~model:(Sim.Schedule.model s)
      ~gst:(Option.value gst ~default:(Sim.Schedule.gst s))
      (trim plans)
  in
  let empty_rounds =
    List.filter_map
      (fun k ->
        if is_empty_plan (List.nth plans (k - 1)) then None
        else
          Some
            (trimmed schedule
               (List.mapi
                  (fun i p -> if i = k - 1 then Sim.Schedule.empty_plan else p)
                  plans)))
      (List.rev (Listx.range 1 (List.length plans)))
  in
  let drops =
    List.concat_map
      (fun op ->
        List.map
          (fun s -> trimmed s (Sim.Schedule.plans s))
          (Workload.Mutate.drops op schedule))
      Workload.Mutate.[ Drop_crash; Drop_omitter; Drop_loss; Drop_delay ]
  in
  let pull_gst =
    if gst > 1 then [ trimmed ~gst:(Round.of_int (gst - 1)) schedule plans ]
    else []
  in
  empty_rounds @ drops @ pull_gst

let shrink ?fuel ?(max_steps = max_int) ~algo ~config ~proposals schedule =
  (* One fuel for the original and every candidate: the default bound
     depends on the horizon, and letting it drift while shrinking would
     let a [Fuel]-class failure "disappear" for the wrong reason. *)
  let fuel =
    Option.value fuel ~default:(Sim.Engine.default_max_rounds config schedule)
  in
  let classify s =
    Outcome.failure_of (Harness.run_contained ~fuel ~algo ~config ~proposals s)
  in
  match classify schedule with
  | None -> None
  | Some failure ->
      let attempts = ref 0 in
      let accept c =
        incr attempts;
        Sim.Schedule.validate config c = Ok () && classify c = Some failure
      in
      let rec fix s steps =
        if steps >= max_steps then (s, steps)
        else
          match List.find_opt accept (candidates s) with
          | None -> (s, steps)
          | Some c -> fix c (steps + 1)
      in
      let schedule, steps = fix schedule 0 in
      Some { schedule; failure; steps; attempts = !attempts }
