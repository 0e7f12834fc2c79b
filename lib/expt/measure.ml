open Kernel

let standard_configs = [ (3, 1); (5, 2); (7, 3); (9, 4) ]

let run_trace entry config schedule ~proposals =
  Sim.Runner.run entry.Registry.algo config ~proposals schedule

let decision_round_on entry config schedule =
  let proposals = Sim.Runner.distinct_proposals config in
  let trace = run_trace entry config schedule ~proposals in
  Option.map Round.to_int (Sim.Trace.global_decision_round trace)

let fail_on_violations entry config outcome what =
  match outcome.Workload.Search.violations with
  | [] -> ()
  | (schedule, vs) :: _ ->
      failwith
        (Format.asprintf "%s on %a, %s: %a@ under %a" entry.Registry.label
           Config.pp config what
           (Format.pp_print_list Sim.Props.pp_violation)
           vs Sim.Schedule.pp schedule)

let sync_worst_case ?(samples = 200) ?(exhaustive_up_to_n = 4) ~seed ~entry
    ~config () =
  let proposals = Sim.Runner.distinct_proposals config in
  let algo = entry.Registry.algo in
  (* Deterministic cascades. *)
  let named =
    Workload.Search.over ~algo ~config ~proposals
      (List.to_seq (List.map snd (Workload.Cascade.all_named config)))
  in
  fail_on_violations entry config named "cascades";
  (* Random synchronous schedules, plain and with crash-round delays. *)
  let plain =
    Workload.Search.random_synchronous ~samples ~seed ~algo ~config ~proposals
      ()
  in
  fail_on_violations entry config plain "random synchronous";
  let delayed =
    Workload.Search.random_synchronous ~samples ~with_delays:true
      ~seed:(seed + 1) ~algo ~config ~proposals ()
  in
  fail_on_violations entry config delayed "random synchronous with delays";
  let best =
    max named.Workload.Search.worst_round
      (max plain.Workload.Search.worst_round
         delayed.Workload.Search.worst_round)
  in
  (* Exhaustive serial sweep for small systems. *)
  if Config.n config <= exhaustive_up_to_n then begin
    let sweep =
      (Result.get_ok
         (Mc.Distrib.run
            (Mc.Distrib.make ~algo config (Mc.Distrib.Fixed proposals))))
        .Mc.Distrib.result
    in
    (match sweep.Mc.Exhaustive.violations with
    | [] -> ()
    | (choices, vs) :: _ ->
        failwith
          (Format.asprintf "%s on %a, exhaustive: %a under %a"
             entry.Registry.label Config.pp config
             (Format.pp_print_list Sim.Props.pp_violation)
             vs
             (Format.pp_print_list Mc.Serial.pp_choice)
             choices));
    max best sweep.Mc.Exhaustive.max_decision
  end
  else best
