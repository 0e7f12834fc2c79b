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

let random_stream ~seed ~samples make =
  let rng = Rng.create ~seed in
  Seq.init samples (fun _ -> make rng)

let random_synchronous ?(samples = 300) ?(with_delays = false) ~seed ~algo
    ~config ~proposals () =
  let make rng =
    if with_delays then Random_runs.synchronous_with_delays rng config ()
    else Random_runs.synchronous rng config ()
  in
  over ~algo ~config ~proposals (random_stream ~seed ~samples make)

let random_es ?(samples = 300) ?(gst = 4) ~seed ~algo ~config ~proposals () =
  let make rng = Random_runs.eventually_synchronous rng config ~gst () in
  over ~algo ~config ~proposals (random_stream ~seed ~samples make)
