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

let run ?metrics ?(jobs = 1) ?fuel ?budget_s ?(shrink = false)
    ?(monitor = true) ?prof ?(progress = Obs.Progress.disabled) ~seed ~runs
    ~algo ~config ~proposals ~gen () =
  let started = Unix.gettimeofday () in
  (* [>=], so a zero budget runs nothing however soon the first take
     comes. *)
  let expired () =
    match budget_s with
    | Some b -> Unix.gettimeofday () >= started +. b
    | None -> false
  in
  (* The schedule stream is drawn from the single seeded generator, one
     schedule per take and under one lock, so schedule [i] is the [i]-th
     draw whichever domain runs it: [--jobs] never changes what the
     campaign explores, and the campaign holds only the schedules in
     flight. Nothing is drawn once the stream ends or the budget expires,
     and a raising [gen] leaves [next] at [runs], which ends the stream for
     every other domain. *)
  let rng = Rng.create ~seed and lock = Mutex.create () and next = ref 0 in
  let take () =
    Mutex.protect lock (fun () ->
        let index = !next in
        if index >= runs || expired () then None
        else begin
          next := runs;
          let schedule = gen config rng in
          next := index + 1;
          Some (index, schedule)
        end)
  in
  let jobs = max 1 jobs in
  Obs.Progress.set_total progress runs;
  (* One probe accumulator per shard (GC counters are per-domain; each
     worker touches only its own slot), merged into the caller's [prof]
     after the join. *)
  let shard_accs =
    match prof with
    | Some _ -> Array.init jobs (fun _ -> Obs.Prof.acc ())
    | None -> [||]
  in
  let one ?acc run (index, schedule) =
    let contained () = run schedule in
    let outcome =
      match acc with
      | None -> contained ()
      | Some a -> Obs.Prof.measure a contained
    in
    match Outcome.failure_of outcome with
    | None -> None
    | Some _ ->
        let shrunk =
          if shrink then
            Shrink.shrink ?fuel ~algo ~config ~proposals schedule
          else None
        in
        Some { index; schedule; outcome; shrunk }
  in
  let shard k () =
    let acc = if shard_accs = [||] then None else Some shard_accs.(k) in
    let run = Harness.runner ~algo ~config ?fuel ~monitor ~proposals in
    let rec go findings =
      match take () with
      | None -> findings
      | Some taken ->
          let findings =
            match one ?acc run taken with
            | None -> findings
            | Some f -> f :: findings
          in
          if Obs.Progress.enabled progress then
            Obs.Progress.step progress ~items:1 ~runs:1 ~hits:0 ~lookups:0;
          go findings
    in
    go []
  in
  let shards =
    Par.map_tasks
      ?report:(Option.map (fun m -> Obs.Prof.pool m ~prefix:"par") metrics)
      ~jobs (Array.init jobs shard)
  in
  (match prof with
  | Some into -> Array.iter (fun a -> Obs.Prof.merge ~into a) shard_accs
  | None -> ());
  (* Every index below [next] was taken and, the join being past, run. *)
  let processed = !next in
  let findings =
    List.sort
      (fun a b -> Int.compare a.index b.index)
      (List.concat (Array.to_list shards))
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
      runs = processed;
      skipped = runs - processed;
      passed = processed - List.length findings;
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
      Obs.Metrics.set (Obs.Metrics.gauge m "fuzz.jobs") jobs;
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
