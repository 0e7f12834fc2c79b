open Kernel

(* One monitored, contained, fueled run on an engine arena. Rounds are
   stepped one by one so the monitor sees each round's new decisions as
   they happen; past the schedule horizon the shared precompiled empty
   plan keeps the loop allocation-free. The runner creates its arena on
   the first run and rewinds it with [Arena.reset] for every later one. *)
let runner_raw ~algo:(Sim.Algorithm.Packed (module A)) ~config =
  let module E = Sim.Engine.Make (A) in
  let n = Config.n config in
  let arena = ref None in
  fun ?fuel ?(monitor = true) ~proposals schedule ->
    let fuel =
      Option.value fuel ~default:(Sim.Engine.default_max_rounds config schedule)
    in
    let horizon = Sim.Schedule.horizon schedule in
    let omitters = Sim.Schedule.omitter_set schedule in
    let a =
      match !arena with
      | Some a ->
          E.Arena.reset a ~proposals;
          a
      | None ->
          let a = E.Arena.create config ~proposals in
          arena := Some a;
          a
    in
    let undecided () =
      let decided = List.map (fun d -> d.Sim.Trace.pid) (E.Arena.decisions a) in
      let crashed = List.map fst (E.Arena.crashed a) in
      List.filter
        (fun p ->
          (not (List.exists (Pid.equal p) decided))
          && (not (List.exists (Pid.equal p) crashed))
          (* Termination, like the post-hoc checker, is owed by correct
             processes only — a declared omitter may be starved forever. *)
          && not (Pid.Set.mem p omitters))
        (Config.processes config)
    in
    let completed ~rounds =
      let trace = E.Arena.finish ~max_rounds:fuel ~schedule a in
      match Sim.Props.check trace with
      | [] ->
          Outcome.Passed
            {
              rounds;
              decision_round =
                Option.map Round.to_int (Sim.Trace.global_decision_round trace);
            }
      | violations -> Outcome.Violated { round = rounds; violations }
    in
    try
      let rec go mon ~seen ~round =
        if E.Arena.all_halted a then completed ~rounds:(round - 1)
        else if round > fuel then
          Outcome.Budget_exhausted { fuel; undecided = undecided () }
        else begin
          E.Arena.step a
            (if round <= horizon then
               Sim.Schedule.compile_plan ~n
                 (Sim.Schedule.plan_at schedule (Round.of_int round))
             else Sim.Schedule.compiled_empty_plan);
          let decisions = E.Arena.decisions a in
          if not monitor then
            go mon ~seen:(List.length decisions) ~round:(round + 1)
          else
            let mon = Monitor.observe_all mon (Listx.drop seen decisions) in
            match Monitor.violation mon with
            | Some v -> Outcome.Violated { round; violations = [ v ] }
            | None -> go mon ~seen:(List.length decisions) ~round:(round + 1)
        end
      in
      go (Monitor.create ~omitters ~proposals ()) ~seen:0 ~round:1
    with Sim.Engine.Step_error e -> Outcome.Crashed e

let runner ~algo ~config =
  let run = runner_raw ~algo ~config in
  fun ?fuel ?monitor ~proposals schedule ->
    try run ?fuel ?monitor ~proposals schedule with
    | (Stack_overflow | Out_of_memory) as e -> raise e
    | e -> Outcome.Raised (Printexc.to_string e)

let run ?fuel ?monitor ~algo ~config ~proposals schedule =
  runner_raw ~algo ~config ?fuel ?monitor ~proposals schedule

let run_contained ?fuel ?monitor ~algo ~config ~proposals schedule =
  runner ~algo ~config ?fuel ?monitor ~proposals schedule
