(* The benchmark runner.

     run.exe --workload W --seed N --seconds S --trace 0|1
         One workload for S seconds. The last line of stdout is one JSON
         object {correct, attempted, failed, metrics}: the end-to-end
         metrics with --trace 0, the per-layer metrics with --trace 1.

     run.exe --seed N [-o FILE]
         A set: [set_reps] timed and set-up repetitions of every workload,
         run round-robin, then one traced run of each. Prints every metric
         with its unit and writes the samples to FILE.

     run.exe compare A.json B.json
         Compares two sets metric by metric; exits 1 if B is worse than A
         beyond a bound.

   Every repetition starts one `ipi` process from this build and checks
   its output against the pinned aggregates in Spec. Scratch files go to
   _benchmark/ under the current directory. *)

open Ipibench
module J = Obs.Json

let exe_dir = Filename.dirname Sys.executable_name
let ipi = Filename.concat (Filename.dirname exe_dir) "bin/ipi.exe"
let layers_exe = Filename.concat exe_dir "layers.exe"
let scratch = "_benchmark"
let say fmt = Format.eprintf (fmt ^^ "@.")

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let workdir (w : Spec.workload) =
  let d = Filename.concat scratch w.name in
  mkdir_p d;
  d

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* ------------------------------------------------------------------ *)
(* Repetitions                                                          *)

type samples = {
  mutable wall : float list;
  mutable runs_per_s : float list;
  mutable rss : float list;
  mutable cpu : float list;
  mutable parallelism : float list;
  mutable setup : float list;
  mutable attempted : int;
  mutable failed : int;
}

let samples () =
  {
    wall = [];
    runs_per_s = [];
    rss = [];
    cpu = [];
    parallelism = [];
    setup = [];
    attempted = 0;
    failed = 0;
  }

(* One `ipi` process; a failed check counts against the workload and
   keeps the repetition's timings out of the samples. *)
let rep s (w : Spec.workload) ~seed ~setup =
  let dir = workdir w in
  let ck = Filename.concat dir "sweep.ckpt" in
  if Sys.file_exists ck then Sys.remove ck;
  let out = Filename.concat dir "stdout.txt" in
  let argv = Spec.argv ~ipi ~seed ~checkpoint:ck ~setup w in
  let p =
    Rusage.run ~argv:(Array.of_list argv) ~stdout:out
      ~stderr:(Filename.concat dir "stderr.txt") ()
  in
  let checkpoint =
    match Mc.Checkpoint.load ~path:ck with
    | Ok c -> Some (List.length c.completed, c.total_tasks)
    | Error _ -> None
  in
  s.attempted <- s.attempted + 1;
  match
    Spec.check w ~setup ~status:p.status ~stdout:(read_file out) ~checkpoint
  with
  | Error e ->
      s.failed <- s.failed + 1;
      say "%s: %s repetition failed: %s" w.name
        (if setup then "set-up" else "timed")
        e
  | Ok _ when setup -> s.setup <- p.wall_s :: s.setup
  | Ok runs ->
      s.wall <- p.wall_s :: s.wall;
      s.runs_per_s <- (float_of_int runs /. p.wall_s) :: s.runs_per_s;
      s.rss <- p.peak_rss_mb :: s.rss;
      s.cpu <- p.cpu_s :: s.cpu;
      s.parallelism <- (p.cpu_s /. p.wall_s) :: s.parallelism;
      say "%s: %.3f s, %.1f MB" w.name p.wall_s p.peak_rss_mb

let median = function [] -> Float.nan | xs -> Quantile.median xs

let end_to_end_samples s =
  [
    ("wall_s", s.wall);
    ("runs_per_s", s.runs_per_s);
    ("setup_s", s.setup);
    ("peak_rss_mb", s.rss);
  ]

(* ------------------------------------------------------------------ *)
(* The traced run                                                       *)

(* Runs layers.exe: its JSON output and the failures it reports. *)
let run_layers (w : Spec.workload) ~seed =
  let dir = workdir w in
  let out = Filename.concat dir "layers.json" in
  let p =
    Rusage.run ~timeout:150
      ~argv:[| layers_exe; w.name; string_of_int seed; dir; ipi |]
      ~stdout:out
      ~stderr:(Filename.concat dir "layers.stderr.txt")
      ()
  in
  let parsed =
    match (p.status, J.of_string (read_file out)) with
    | Rusage.Exited 0, Ok j -> Ok j
    | Rusage.Exited 0, Error e -> Error ("layers output: " ^ e)
    | st, _ -> Error (Format.asprintf "layers.exe: %a" Rusage.pp_status st)
  in
  let j, errors =
    match parsed with
    | Ok j ->
        ( j,
          List.filter_map J.to_string_opt
            (Option.value ~default:[]
               (Option.bind (J.member "failures" j) J.to_list_opt)) )
    | Error e -> (J.Obj [], [ e ])
  in
  List.iter (say "%s: traced run: %s" w.name) errors;
  (j, errors)

(* Completes layers.exe's numbers with CPU time and parallelism from the
   untraced repetitions, the tracing overhead, and how much of the wall
   time the layers leave unexplained. The last two compare with the
   untraced runs layers.exe made between its passes. Layers a workload
   does not use report 0. *)
let layer_metrics s (j, errors) =
  let num j key =
    Option.value ~default:0. (Option.bind (J.member key j) J.to_float_opt)
  in
  let layer = Option.value ~default:(J.Obj []) (J.member "metrics" j) in
  let wall = num j "untraced_wall_s" and setup = median s.setup in
  let derived =
    [
      ("proc.cpu_s", median s.cpu);
      ("proc.parallelism", median s.parallelism);
      ("trace.overhead_ratio", num j "traced_wall_s" /. wall);
      ( "ledger.unexplained_share",
        Float.abs (wall -. (setup +. num j "accounted_s")) /. wall );
    ]
  in
  let value (m : Spec.metric) =
    match List.assoc_opt m.name derived with
    | Some v -> v
    | None -> num layer m.name
  in
  (List.map (fun (m : Spec.metric) -> (m, value m)) Spec.per_layer, errors = [])

(* ------------------------------------------------------------------ *)
(* Modes                                                                *)

let metric_json (m : Spec.metric) v =
  (m.name, J.Obj [ ("value", J.Float v); ("unit", J.String m.unit) ])

(* After each timed repetition of a run, set-up repetitions until they
   have taken [setup_share] of its time, and at least [min_setups]: set-up
   is short, and its median needs more samples than a run holds timed
   repetitions. *)
let min_setups = 3
let setup_share = 0.05
let min_reps = 2

(* Timed repetitions per workload in a set. With 5, the quartiles of
   Python's statistics.quantiles are the means of the two extreme pairs,
   so one slow repetition leaves the pair unresolved. *)
let set_reps = 10

let drive (w : Spec.workload) ~seed ~seconds ~trace =
  let s = samples () in
  (* A first set-up repetition loads the binary into the page cache. *)
  rep (samples ()) w ~seed ~setup:true;
  let deadline = Rusage.now () +. float_of_int seconds in
  let reps = ref 0 in
  while !reps < min_reps || Rusage.now () < deadline do
    let t0 = Rusage.now () in
    rep s w ~seed ~setup:false;
    let until = Rusage.now () +. (setup_share *. (Rusage.now () -. t0)) in
    let setups = ref 0 in
    while !setups < min_setups || Rusage.now () < until do
      rep s w ~seed ~setup:true;
      incr setups
    done;
    incr reps
  done;
  let metrics, traced_ok =
    if trace then layer_metrics s (run_layers w ~seed)
    else
      ( List.map
          (fun (m : Spec.metric) ->
            (m, median (List.assoc m.name (end_to_end_samples s))))
          Spec.end_to_end,
        true )
  in
  let complete = List.for_all (fun (_, v) -> Float.is_finite v) metrics in
  print_endline
    (J.to_string
       (J.Obj
          [
            ("correct", J.Bool (s.failed = 0 && traced_ok && complete));
            ("attempted", J.Int s.attempted);
            ("failed", J.Int s.failed);
            ( "metrics",
              J.Obj
                (List.map
                   (fun (m, v) ->
                     metric_json m (if Float.is_finite v then v else 0.))
                   metrics) );
          ]))

let set ~seed ~out =
  let all = List.map (fun w -> (w, samples ())) Spec.workloads in
  List.iter (fun (w, _) -> rep (samples ()) w ~seed ~setup:true) all;
  for _ = 1 to set_reps do
    List.iter
      (fun (w, s) ->
        rep s w ~seed ~setup:false;
        rep s w ~seed ~setup:true)
      all
  done;
  let results =
    List.map
      (fun ((w : Spec.workload), s) ->
        let layers, ok = layer_metrics s (run_layers w ~seed) in
        (w, s, layers, ok))
      all
  in
  let ok = ref true in
  let workloads =
    List.map
      (fun ((w : Spec.workload), s, layers, traced_ok) ->
        if s.failed > 0 || not traced_ok then ok := false;
        let failure_rate =
          float_of_int s.failed /. float_of_int (max 1 s.attempted)
        in
        Format.printf "@.%s  (%d repetitions, %d failed)@." w.name s.attempted
          s.failed;
        Format.printf "  %-32s %14.6g %s@." "failure_rate" failure_rate
          "share";
        let e2e =
          List.map
            (fun (m : Spec.metric) ->
              let xs = List.assoc m.name (end_to_end_samples s) in
              let q1, q3 = if xs = [] then (0., 0.) else Quantile.quartiles xs in
              Format.printf "  %-32s %14.6g %-7s [%.6g, %.6g] n=%d@." m.name
                (median xs) m.unit q1 q3 (List.length xs);
              ( m.name,
                J.Obj
                  [
                    ("unit", J.String m.unit);
                    ("median", J.Float (median xs));
                    ("q1", J.Float q1);
                    ("q3", J.Float q3);
                    ("samples", J.List (List.map (fun x -> J.Float x) xs));
                  ] ))
            Spec.end_to_end
        in
        List.iter
          (fun ((m : Spec.metric), v) ->
            Format.printf "  %-32s %14.6g %s@." m.name v m.unit)
          layers;
        ( w.name,
          J.Obj
            [
              ("attempted", J.Int s.attempted);
              ("failed", J.Int s.failed);
              ("failure_rate", J.Float failure_rate);
              ("end_to_end", J.Obj e2e);
              ( "per_layer",
                J.Obj (List.map (fun (m, v) -> metric_json m v) layers) );
            ] ))
      results
  in
  let json =
    J.Obj
      [
        ("seed", J.Int seed);
        ("reps", J.Int set_reps);
        ("nproc", J.Int (Domain.recommended_domain_count ()));
        ("ocaml", J.String Sys.ocaml_version);
        ("commit", J.String (Mc.Checkpoint.current_commit ()));
        ("workloads", J.Obj workloads);
      ]
  in
  (match out with
  | Some path ->
      Out_channel.with_open_bin path (fun oc ->
          output_string oc (J.to_string json);
          output_char oc '\n');
      Format.printf "@.result written to %s@." path
  | None -> ());
  if not !ok then exit 1

(* ------------------------------------------------------------------ *)
(* compare                                                              *)

type verdict = Within | Worse | Unresolved

(* How far a metric may move from a median before it counts. *)
let allowance (m : Spec.metric) median =
  Float.max (Option.value m.bound ~default:0. *. Float.abs median) m.slack

(* A set resolves a metric when its own noise fits in the allowance. *)
let resolves m xs =
  let q1, q3 = Quantile.quartiles xs in
  q3 -. q1 <= allowance m (Quantile.median xs)

let compare_sets a b =
  let load path =
    match J.of_string (read_file path) with
    | Ok j -> j
    | Error e ->
        say "%s: %s" path e;
        exit 2
  in
  let a = load a and b = load b in
  let get path j =
    List.fold_left (fun j k -> Option.bind j (J.member k)) (Some j) path
  in
  let floats j =
    Option.value ~default:[]
      (Option.map (List.filter_map J.to_float_opt) (Option.bind j J.to_list_opt))
  in
  let worse = ref 0 in
  List.iter
    (fun (w : Spec.workload) ->
      Format.printf "@.%s@." w.name;
      List.iter
        (fun (m : Spec.metric) ->
          let xs j = floats (get [ "workloads"; w.name; "end_to_end"; m.name; "samples" ] j) in
          match (xs a, xs b) with
          | [], _ | _, [] -> Format.printf "  %-14s missing@." m.name
          | xa, xb ->
              let bound = Option.value m.bound ~default:0. in
              let ma = Quantile.median xa and mb = Quantile.median xb in
              let sa = Quantile.spread xa and sb = Quantile.spread xb in
              let by = match m.better with Spec.Lower -> mb -. ma | Higher -> ma -. mb in
              let verdict =
                if not (resolves m xa && resolves m xb) then Unresolved
                else if by > allowance m ma then Worse
                else Within
              in
              if verdict = Worse then incr worse;
              Format.printf
                "  %-14s %12.6g -> %-12.6g %-7s %+6.1f%%  spread %.1f%%/%.1f%%  \
                 bound %.0f%%  %s@."
                m.name ma mb m.unit
                (100. *. (mb -. ma) /. ma)
                (100. *. sa) (100. *. sb) (100. *. bound)
                (match verdict with
                | Within -> "within bound"
                | Worse -> "WORSE"
                | Unresolved -> "unresolved"))
        Spec.end_to_end;
      let rate j =
        Option.bind (get [ "workloads"; w.name; "failure_rate" ] j) J.to_float_opt
      in
      match (rate a, rate b) with
      | Some ra, Some rb ->
          if rb > ra then incr worse;
          Format.printf "  %-14s %12.6g -> %-12.6g %s@." "failure_rate" ra rb
            (if rb > ra then "WORSE" else "within bound")
      | _ -> Format.printf "  %-14s missing@." "failure_rate")
    Spec.workloads;
  if !worse > 0 then exit 1

(* ------------------------------------------------------------------ *)

let usage () =
  prerr_endline
    "usage: run.exe --workload W --seed N --seconds S --trace 0|1\n\
    \       run.exe --seed N [-o FILE]\n\
    \       run.exe compare A.json B.json";
  exit 2

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  match args with
  | [ "compare"; a; b ] -> compare_sets a b
  | _ ->
      let rec opts acc = function
        | [] -> acc
        | k :: v :: rest when String.starts_with ~prefix:"-" k ->
            opts ((k, v) :: acc) rest
        | _ -> usage ()
      in
      let o = opts [] args in
      let int k = Option.map int_of_string (List.assoc_opt k o) in
      let int k = try int k with Failure _ -> usage () in
      if not (Sys.file_exists ipi && Sys.file_exists layers_exe) then begin
        say "missing %s or %s: build them first (dune build)" ipi layers_exe;
        exit 2
      end;
      let seed = Option.value (int "--seed") ~default:1 in
      match List.assoc_opt "--workload" o with
      | Some name -> (
          match (Spec.find_workload name, int "--seconds", int "--trace") with
          | Some w, Some seconds, Some trace when trace = 0 || trace = 1 ->
              drive w ~seed ~seconds ~trace:(trace = 1)
          | None, _, _ ->
              say "unknown workload %s" name;
              exit 2
          | _ -> usage ())
      | None -> set ~seed ~out:(List.assoc_opt "-o" o)
