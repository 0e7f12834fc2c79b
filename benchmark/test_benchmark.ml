(* Fast checks of the benchmark's definition: no workload is executed.

   - BENCHMARK.json parses and names exactly the workloads and metrics
     the runner emits, with the same units and directions, and bounds no
     narrower than the runner's;
   - the summary parsers accept recorded stdout of today's `ipi sweep`
     and `ipi fuzz`, and the pinned checks pass on it — a change to
     either printer fails here instead of failing every repetition;
   - quartiles match Python's statistics.quantiles, which the spread
     checks are stated in. *)

open Ipibench
module J = Obs.Json

let read path = In_channel.with_open_bin path In_channel.input_all

let benchmark_json () =
  match J.of_string (read "../BENCHMARK.json") with
  | Ok j -> j
  | Error e -> Alcotest.failf "BENCHMARK.json: %s" e

let field j k =
  match J.member k j with
  | Some v -> v
  | None -> Alcotest.failf "missing key %S" k

let list j = Option.get (J.to_list_opt j)
let str j = Option.get (J.to_string_opt j)
let keys = function J.Obj kv -> List.map fst kv | _ -> []

let test_schema () =
  let j = benchmark_json () in
  Alcotest.(check (list string))
    "top-level keys"
    [ "command"; "paths"; "run_seconds"; "workloads"; "end_to_end"; "per_layer" ]
    (keys j);
  let paths = List.map str (list (field j "paths")) in
  Alcotest.(check (list string)) "paths" [ "benchmark" ] paths;
  let command = List.map str (list (field j "command")) in
  List.iter
    (fun arg ->
      if String.contains arg '/' then
        Alcotest.(check bool)
          ("command path under paths: " ^ arg)
          true
          (List.exists (fun p -> String.starts_with ~prefix:(p ^ "/") arg) paths))
    command;
  let seconds = Option.get (J.to_int_opt (field j "run_seconds")) in
  Alcotest.(check bool) "run_seconds in 1..60" true (seconds >= 1 && seconds <= 60)

let test_workloads () =
  let j = benchmark_json () in
  let listed =
    List.map
      (fun w ->
        Alcotest.(check (list string)) "workload keys" [ "name"; "why" ] (keys w);
        let why = str (field w "why") in
        Alcotest.(check bool) "why is one short line" true
          (String.length why <= 200 && not (String.contains why '\n'));
        (str (field w "name"), why))
      (list (field j "workloads"))
  in
  Alcotest.(check (list (pair string string)))
    "workloads"
    (List.map (fun (w : Spec.workload) -> (w.name, w.why)) Spec.workloads)
    listed

let metric_rows j key =
  List.map
    (fun m ->
      let bound = Option.bind (J.member "bound" m) J.to_float_opt in
      ((str (field m "name"), str (field m "unit"), str (field m "better")), bound))
    (list (field j key))

let spec_row (m : Spec.metric) =
  (m.name, m.unit, match m.better with Spec.Lower -> "lower" | Higher -> "higher")

let row = Alcotest.(triple string string string)

(* BENCHMARK.json's bounds gate a change on the medians alone, with no
   unresolved verdict, so they may be wider than the bounds [compare]
   applies, never narrower. Set-up time takes the largest, because the
   format has no absolute slack and 20 ms is several times a sweep's
   set-up. *)
let test_metrics () =
  let j = benchmark_json () in
  let e2e = metric_rows j "end_to_end" in
  Alcotest.(check (list row))
    "end_to_end" (List.map spec_row Spec.end_to_end) (List.map fst e2e);
  Alcotest.(check (list row))
    "per_layer" (List.map spec_row Spec.per_layer)
    (List.map fst (metric_rows j "per_layer"));
  let largest = List.fold_left (fun a (_, b) -> Float.max a (Option.get b)) 0. e2e in
  List.iter2
    (fun (m : Spec.metric) (_, bound) ->
      match (m.bound, bound) with
      | Some b, Some json ->
          Alcotest.(check bool) (m.name ^ " bound") true (json >= b && json <= 0.25);
          if m.name = "setup_s" then
            Alcotest.(check (float 0.)) "setup_s has the largest bound" largest json
      | _ -> Alcotest.failf "%s: no bound" m.name)
    Spec.end_to_end e2e

(* Recorded stdout of each workload's command, timed and with --budget 0. *)
let fixture name = read ("fixtures/" ^ name ^ ".txt")

let check_fixture (w : Spec.workload) ~setup =
  let stdout = fixture (w.name ^ if setup then ".setup" else "") in
  let status = Rusage.Exited (match (w.kind, setup) with Spec.Sweep _, true -> 3 | _ -> 0) in
  let checkpoint =
    match w.kind with
    | Spec.Sweep s when s.workers > 0 -> Some (Spec.tasks s, Spec.tasks s)
    | _ -> None
  in
  let want =
    match (w.kind, setup) with
    | _, true -> 0
    | Spec.Sweep s, false -> s.runs
    | Spec.Fuzz f, false -> f.runs
  in
  Alcotest.(check (result int string))
    (w.name ^ if setup then " set-up" else " timed")
    (Ok want)
    (Spec.check w ~setup ~status ~stdout ~checkpoint)

let test_fixtures () =
  List.iter
    (fun w ->
      check_fixture w ~setup:false;
      check_fixture w ~setup:true)
    Spec.workloads

let test_checks_fail () =
  let w = Option.get (Spec.find_workload "sweep-omission") in
  let stdout = fixture "sweep-omission" in
  let bad = String.map (fun c -> if c = '2' then '3' else c) stdout in
  Alcotest.(check bool) "changed aggregates fail" true
    (Result.is_error
       (Spec.check w ~setup:false ~status:(Rusage.Exited 0) ~stdout:bad
          ~checkpoint:None));
  Alcotest.(check bool) "wrong exit code fails" true
    (Result.is_error
       (Spec.check w ~setup:false ~status:(Rusage.Exited 1) ~stdout
          ~checkpoint:None))

let test_quartiles () =
  (* statistics.quantiles([1, ..., 10], n=4) == [2.75, 5.5, 8.25] *)
  let q1, q3 = Quantile.quartiles (List.init 10 (fun i -> float_of_int (i + 1))) in
  Alcotest.(check (pair (float 1e-12) (float 1e-12))) "1..10" (2.75, 8.25) (q1, q3);
  (* statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0] *)
  let q1, q3 = Quantile.quartiles [ 3.; 1.; 2. ] in
  Alcotest.(check (pair (float 1e-12) (float 1e-12))) "three" (1., 3.) (q1, q3);
  Alcotest.(check (float 1e-12)) "median" 2.5 (Quantile.median [ 4.; 1.; 3.; 2. ])

let () =
  Alcotest.run "benchmark"
    [
      ( "definition",
        [
          Alcotest.test_case "BENCHMARK.json schema" `Quick test_schema;
          Alcotest.test_case "workloads match the runner" `Quick test_workloads;
          Alcotest.test_case "metrics match the runner" `Quick test_metrics;
        ] );
      ( "output checks",
        [
          Alcotest.test_case "recorded ipi stdout passes" `Quick test_fixtures;
          Alcotest.test_case "wrong output fails" `Quick test_checks_fail;
        ] );
      ("statistics", [ Alcotest.test_case "quartiles" `Quick test_quartiles ]);
    ]
