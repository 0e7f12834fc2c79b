open Kernel

type gen = Config.t -> Rng.t -> Sim.Schedule.t

type finding = {
  index : int;
  schedule : Sim.Schedule.t;
  outcome : Outcome.t;
  shrunk : Shrink.report option;
}

type report = {
  runs : int;
  skipped : int;
  passed : int;
  findings : finding list;
  shrink_steps : int;
  wall_s : float;
}

let default_gen config rng =
  match Rng.int rng 3 with
  | 0 -> Workload.Random_runs.synchronous rng config ()
  | 1 -> Workload.Random_runs.synchronous_with_delays rng config ()
  | _ ->
      Workload.Random_runs.eventually_synchronous rng config
        ~gst:(1 + Rng.int rng 3) ()

let mutation_gen ~base config rng = Workload.Mutate.generator ~base config rng

module J = Obs.Json

(* A worker campaign's tasks: runs [0, runs) cut into contiguous chunks of
   [chunk runs] runs, so that a task stays far inside the supervisor's
   chunk timeout. Parent and workers derive them from [runs] alone. *)
let chunk runs = max 1 (min 1000 ((runs + 63) / 64))
let task_count runs = (runs + chunk runs - 1) / chunk runs

let task_range ~runs k =
  let c = chunk runs in
  (k * c, min runs ((k + 1) * c))

let worker_loop ?fuel ?(monitor = true) ~seed ~runs ~algo ~config ~proposals
    ~gen =
  let run = Harness.runner ~algo ~config ?fuel ~monitor ~proposals in
  (* [rng] is about to draw schedule [!next]. *)
  let rng = ref (Rng.create ~seed) and next = ref 0 in
  Mc.Supervise.serve ~name:"fuzz-worker" ~tasks:(task_count runs) (fun k ->
      let lo, hi = task_range ~runs k in
      if lo < !next then begin
        rng := Rng.create ~seed;
        next := 0
      end;
      let failed = ref [] in
      while !next < hi do
        let index = !next and schedule = gen config !rng in
        incr next;
        if index >= lo && Outcome.failure_of (run schedule) <> None then
          failed := J.Int index :: !failed
      done;
      J.Obj [ ("task", J.Int k); ("failed", J.List (List.rev !failed)) ])

let run ?metrics ?(jobs = 1) ?worker_argv ?fuel ?budget_s ?(shrink = false)
    ?(monitor = true) ?prof ?(progress = Obs.Progress.disabled) ~seed ~runs
    ~algo ~config ~proposals ~gen () =
  let started = Unix.gettimeofday () in
  (* [>=], so a zero budget runs nothing however soon the first check
     comes. *)
  let expired () =
    match budget_s with
    | Some b -> Unix.gettimeofday () >= started +. b
    | None -> false
  in
  let runner = Harness.runner ~algo ~config ?fuel ~monitor ~proposals in
  let finding ?acc index schedule =
    let outcome =
      match acc with
      | None -> runner schedule
      | Some a -> Obs.Prof.measure a (fun () -> runner schedule)
    in
    match Outcome.failure_of outcome with
    | None -> None
    | Some _ ->
        let shrunk =
          if shrink then Shrink.shrink ?fuel ~algo ~config ~proposals schedule
          else None
        in
        Some { index; schedule; outcome; shrunk }
  in
  Obs.Progress.set_total progress runs;
  (* The schedule stream is drawn from the single seeded generator, one
     schedule as each run starts, so schedule [i] is the [i]-th draw and
     the campaign holds only the run in flight and its findings. Nothing
     is drawn once the stream ends or the budget expires. *)
  let in_process () =
    let rng = Rng.create ~seed in
    let rec go index findings =
      if index >= runs || expired () then (index, List.rev findings)
      else
        let findings =
          match finding ?acc:prof index (gen config rng) with
          | None -> findings
          | Some f -> f :: findings
        in
        Obs.Progress.step progress ~items:1 ~runs:1 ~hits:0 ~lookups:0;
        go (index + 1) findings
    in
    go 0 []
  in
  (* Workers run the tasks and answer each with the indices of its failing
     runs. Every finding is then rebuilt here, in one pass over the same
     stream: the same draw, run and shrink as in process, so no outcome or
     schedule crosses the pipe and the report is the in-process one. *)
  let on_workers argv =
    let executed = ref 0 and failed = ref [] and bad = ref [] in
    let on_result ~task payload =
      let lo, hi = task_range ~runs task in
      match Option.bind (J.member "failed" payload) J.to_list_opt with
      | Some l
        when List.for_all
               (fun j ->
                 match J.to_int_opt j with
                 | Some i -> lo <= i && i < hi
                 | None -> false)
               l ->
          failed := List.filter_map J.to_int_opt l @ !failed;
          executed := !executed + (hi - lo);
          Obs.Progress.step progress ~items:(hi - lo) ~runs:(hi - lo) ~hits:0
            ~lookups:0
      | _ -> bad := (task, "bad result frame") :: !bad
    in
    let o =
      Mc.Supervise.run ~should_stop:expired ~on_result ~workers:jobs
        ~spawn:(fun () -> Proc.spawn ~prog:(List.hd argv) ~args:argv)
        ~tasks:(List.init (task_count runs) Fun.id)
        ()
    in
    (match List.sort compare (o.failed @ !bad) with
    | (task, reason) :: _ ->
        let lo, hi = task_range ~runs task in
        failwith
          (Printf.sprintf "fuzz: task %d (runs %d-%d) failed: %s" task lo
             (hi - 1) reason)
    | [] -> ());
    let rng = Rng.create ~seed in
    let rec rebuild index failed findings =
      match failed with
      | [] -> List.rev findings
      | next :: rest -> (
          let schedule = gen config rng in
          if index < next then rebuild (index + 1) failed findings
          else
            match finding index schedule with
            | Some f -> rebuild (index + 1) rest (f :: findings)
            | None ->
                failwith
                  (Printf.sprintf
                     "fuzz: run #%d failed in a worker but passes in process"
                     index))
    in
    (!executed, rebuild 0 (List.sort_uniq compare !failed) [])
  in
  let executed, findings =
    match worker_argv with
    | _ when jobs <= 1 -> in_process ()
    | Some (_ :: _ as argv) -> on_workers argv
    | None | Some [] ->
        invalid_arg "Campaign.run: jobs >= 2 needs a worker_argv"
  in
  let shrink_steps =
    List.fold_left
      (fun acc f ->
        acc + match f.shrunk with Some r -> r.Shrink.steps | None -> 0)
      0 findings
  in
  let wall_s = Unix.gettimeofday () -. started in
  let report =
    {
      runs = executed;
      skipped = runs - executed;
      passed = executed - List.length findings;
      findings;
      shrink_steps;
      wall_s;
    }
  in
  (match metrics with
  | None -> ()
  | Some m ->
      let count cls =
        Listx.count
          (fun f -> Outcome.failure_of f.outcome = Some cls)
          findings
      in
      Obs.Metrics.incr ~by:report.runs (Obs.Metrics.counter m "fuzz.runs");
      Obs.Metrics.incr
        ~by:
          (count Outcome.Validity + count Outcome.Agreement
         + count Outcome.Termination)
        (Obs.Metrics.counter m "fuzz.violations");
      Obs.Metrics.incr ~by:(count Outcome.Crash)
        (Obs.Metrics.counter m "fuzz.crashed");
      Obs.Metrics.incr ~by:(count Outcome.Fuel)
        (Obs.Metrics.counter m "fuzz.budget_exhausted");
      Obs.Metrics.incr ~by:report.skipped
        (Obs.Metrics.counter m "fuzz.skipped");
      Obs.Metrics.incr ~by:report.shrink_steps
        (Obs.Metrics.counter m "fuzz.shrink_steps");
      Obs.Metrics.set (Obs.Metrics.gauge m "fuzz.jobs") (max 1 jobs);
      Obs.Metrics.observe
        (Obs.Metrics.histogram m "fuzz.wall_seconds")
        report.wall_s;
      if report.wall_s > 0. then
        Obs.Metrics.observe
          (Obs.Metrics.histogram m "fuzz.runs_per_second")
          (float_of_int report.runs /. report.wall_s));
  report

let finding_to_json f =
  let failure =
    match Outcome.failure_of f.outcome with
    | Some c -> Obs.Json.String (Format.asprintf "%a" Outcome.pp_failure c)
    | None -> Obs.Json.Null
  in
  let shrunk =
    match f.shrunk with
    | None -> Obs.Json.Null
    | Some r ->
        Obs.Json.Obj
          [
            ("schedule", Obs.Json.String (Sim.Codec.encode r.Shrink.schedule));
            ("steps", Obs.Json.Int r.Shrink.steps);
            ("attempts", Obs.Json.Int r.Shrink.attempts);
          ]
  in
  Obs.Json.Obj
    [
      ("index", Obs.Json.Int f.index);
      ("schedule", Obs.Json.String (Sim.Codec.encode f.schedule));
      ("failure", failure);
      ("outcome", Obs.Json.String (Format.asprintf "%a" Outcome.pp f.outcome));
      ("shrunk", shrunk);
    ]

let to_json ?(meta = []) report =
  Obs.Json.Obj
    (meta
    @ [
        ("runs", Obs.Json.Int report.runs);
        ("skipped", Obs.Json.Int report.skipped);
        ("passed", Obs.Json.Int report.passed);
        ("findings", Obs.Json.List (List.map finding_to_json report.findings));
        ("shrink_steps", Obs.Json.Int report.shrink_steps);
        ("wall_s", Obs.Json.Float report.wall_s);
      ])

let pp_finding ppf f =
  Format.fprintf ppf "@[<v2>run #%d: %a@,schedule: %a%a@]" f.index Outcome.pp
    f.outcome Sim.Schedule.pp f.schedule
    (fun ppf -> function
      | None -> ()
      | Some r ->
          Format.fprintf ppf
            "@,shrunk (%d step(s), %d attempt(s)) to: %a" r.Shrink.steps
            r.Shrink.attempts Sim.Schedule.pp r.Shrink.schedule)
    f.shrunk

let pp_report ppf r =
  Format.fprintf ppf
    "@[<v>%d run(s) in %.2fs (%d skipped): %d passed, %d finding(s)%s@]"
    r.runs r.wall_s r.skipped r.passed
    (List.length r.findings)
    (if r.shrink_steps > 0 then
       Format.sprintf "; %d shrink step(s)" r.shrink_steps
     else "")
