open Kernel

type outcome = {
  worst_round : int;
  worst_schedule : Sim.Schedule.t option;
  runs : int;
  violations : (Sim.Schedule.t * Sim.Props.violation list) list;
}

let empty = { worst_round = 0; worst_schedule = None; runs = 0; violations = [] }

let fold_run ~algo ~config ~proposals acc schedule =
  let trace = Sim.Runner.run algo config ~proposals schedule in
  let acc = { acc with runs = acc.runs + 1 } in
  let acc =
    match Sim.Props.check trace with
    | [] -> acc
    | vs -> { acc with violations = (schedule, vs) :: acc.violations }
  in
  match Sim.Trace.global_decision_round trace with
  | Some r when Round.to_int r > acc.worst_round ->
      { acc with worst_round = Round.to_int r; worst_schedule = Some schedule }
  | _ -> acc

let over ~algo ~config ~proposals schedules =
  Seq.fold_left (fold_run ~algo ~config ~proposals) empty schedules

let random_es ?(samples = 300) ?(gst = 4) ~seed ~algo ~config ~proposals () =
  let rng = Rng.create ~seed in
  over ~algo ~config ~proposals
    (Seq.init samples (fun _ ->
         Random_runs.eventually_synchronous rng config ~gst ()))
