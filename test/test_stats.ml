(* Bench-diff: artifact parsing and the regression verdict policy. *)

open Helpers

let entry ?minor ?speedup name mean stddev =
  {
    Stats.Bench_diff.e_name = name;
    e_mean_s = mean;
    e_stddev_s = stddev;
    e_minor_words = minor;
    e_speedup = speedup;
  }

let artifact ?date suites = { Stats.Bench_diff.a_date = date; a_suites = suites }

let diff = Stats.Bench_diff.diff

let row report suite name =
  match
    List.find_opt
      (fun (r : Stats.Bench_diff.row) -> r.suite = suite && r.name = name)
      report.Stats.Bench_diff.rows
  with
  | Some r -> r
  | None -> Alcotest.fail (Printf.sprintf "row %s/%s missing" suite name)

(* ------------------------------------------------------------------ *)
(* Verdict policy                                                      *)

let test_time_regression_needs_ratio_and_sigma () =
  (* Same 2x ratio on both rows; only the one whose delta clears the
     2-sigma noise band regresses. *)
  let old_ =
    artifact
      [ ("s", [ entry "clean" 1.0 0.01; entry "noisy" 1.0 0.5 ]) ]
  in
  let new_ =
    artifact
      [ ("s", [ entry "clean" 2.0 0.01; entry "noisy" 2.0 0.5 ]) ]
  in
  let report = diff ~threshold:1.25 ~old_ ~new_ () in
  check_bool "clean row regresses" true (row report "s" "clean").time_regressed;
  check_bool "noisy row is shielded by its stddev" false
    (row report "s" "noisy").time_regressed;
  check_int "one regression" 1
    (List.length (Stats.Bench_diff.regressions report))

let test_time_below_threshold_passes () =
  let old_ = artifact [ ("s", [ entry "w" 1.0 0.001 ]) ] in
  let new_ = artifact [ ("s", [ entry "w" 1.2 0.001 ]) ] in
  let report = diff ~threshold:1.25 ~old_ ~new_ () in
  check_bool "1.2x under a 1.25 threshold" false (row report "s" "w").time_regressed;
  let tight = diff ~threshold:1.1 ~old_ ~new_ () in
  check_bool "same artifacts fail a 1.1 threshold" true
    (row tight "s" "w").time_regressed

let test_alloc_regression_and_min_words_floor () =
  let old_ =
    artifact
      [
        ( "s",
          [
            entry ~minor:10_000. "big" 1.0 0.001;
            entry ~minor:100. "tiny" 1.0 0.001;
          ] );
      ]
  in
  let new_ =
    artifact
      [
        ( "s",
          [
            entry ~minor:15_000. "big" 1.0 0.001;
            entry ~minor:400. "tiny" 1.0 0.001;
          ] );
      ]
  in
  let report = diff ~alloc_threshold:1.10 ~old_ ~new_ () in
  let big = row report "s" "big" in
  check_bool "1.5x words on a big row regresses" true big.alloc_regressed;
  check_bool "alloc ratio computed" true
    (match big.alloc_ratio with Some r -> r > 1.4 && r < 1.6 | None -> false);
  check_bool "4x words under the min_words floor is ignored" false
    (row report "s" "tiny").alloc_regressed;
  check_bool "time untouched" false big.time_regressed

let test_missing_minor_words_means_no_alloc_verdict () =
  (* Pre-profiling artifacts carry no alloc columns: diffing against them
     must still work and never produce alloc verdicts. *)
  let old_ = artifact [ ("s", [ entry "w" 1.0 0.001 ]) ] in
  let new_ = artifact [ ("s", [ entry ~minor:1.0e9 "w" 1.0 0.001 ]) ] in
  let r = row (diff ~old_ ~new_ ()) "s" "w" in
  check_bool "no alloc ratio" true (r.alloc_ratio = None);
  check_bool "no alloc verdict" false r.alloc_regressed

let test_speedup_lost_policy () =
  (* A reduction may compress (7.9x -> 5.6x: the unreduced sibling got
     faster) without regressing, but clearly inverting below 1x fails even
     if the row's own time improved; rows that never were a win stay
     exempt, and overhead-style rows hovering at ~1x are shielded by the
     threshold. *)
  let old_ =
    artifact
      [
        ( "s",
          [
            entry ~speedup:7.9 "compressed" 1.0 0.001;
            entry ~speedup:1.2 "inverted" 1.0 0.001;
            entry ~speedup:1.01 "hovering" 1.0 0.001;
            entry ~speedup:0.9 "never-won" 1.0 0.001;
            entry "no-speedup" 1.0 0.001;
          ] );
      ]
  in
  let new_ =
    artifact
      [
        ( "s",
          [
            entry ~speedup:5.6 "compressed" 0.8 0.001;
            entry ~speedup:0.8 "inverted" 0.7 0.001;
            entry ~speedup:0.99 "hovering" 1.0 0.001;
            entry ~speedup:0.85 "never-won" 1.0 0.001;
            entry "no-speedup" 1.0 0.001;
          ] );
      ]
  in
  let report = diff ~threshold:1.03 ~old_ ~new_ () in
  check_bool "compression is not a regression" false
    (row report "s" "compressed").speedup_lost;
  check_bool "inversion regresses despite a faster absolute time" true
    (row report "s" "inverted").speedup_lost;
  check_bool "a ~1x overhead row crossing the boundary is shielded" false
    (row report "s" "hovering").speedup_lost;
  check_bool "a row that never won is exempt" false
    (row report "s" "never-won").speedup_lost;
  check_bool "rows without the column have no verdict" false
    (row report "s" "no-speedup").speedup_lost;
  check_int "one regression" 1
    (List.length (Stats.Bench_diff.regressions report));
  let text = Format.asprintf "%a" Stats.Bench_diff.pp report in
  check_bool "table shows old->new speedups" true (contains text "7.90x->5.60x");
  check_bool "verdict names the loss" true (contains text "SPEEDUP")

let test_only_old_and_only_new_never_fail () =
  let old_ = artifact [ ("s", [ entry "kept" 1.0 0.001; entry "dropped" 1.0 0.001 ]) ] in
  let new_ = artifact [ ("s", [ entry "kept" 1.0 0.001; entry "added" 9.0 0.001 ]) ] in
  let report = diff ~old_ ~new_ () in
  check_bool "dropped row listed" true
    (report.Stats.Bench_diff.only_old = [ "s/dropped" ]);
  check_bool "added row listed" true
    (report.Stats.Bench_diff.only_new = [ "s/added" ]);
  check_int "unmatched rows are never regressions" 0
    (List.length (Stats.Bench_diff.regressions report));
  check_int "only matched rows in the table" 1
    (List.length report.Stats.Bench_diff.rows)

(* ------------------------------------------------------------------ *)
(* Artifact parsing                                                    *)

let test_parse_both_artifact_generations () =
  let new_format =
    {|{"date":"2026-08-07","suites":{"micro":[
        {"name":"w","mean_s":1.5e-6,"stddev_s":1e-8,"minor_words":1234.5}]}}|}
  in
  (match Stats.Bench_diff.artifact_of_string new_format with
  | Error e -> Alcotest.fail e
  | Ok a -> (
      check_bool "date" true (a.Stats.Bench_diff.a_date = Some "2026-08-07");
      match a.Stats.Bench_diff.a_suites with
      | [ ("micro", [ e ]) ] ->
          check_string "name" "w" e.Stats.Bench_diff.e_name;
          check_bool "minor words read" true (e.e_minor_words = Some 1234.5)
      | _ -> Alcotest.fail "unexpected suite shape"));
  let old_format =
    {|{"suites":{"micro":[{"name":"w","mean_s":1.5e-6,"stddev_s":1e-8}]}}|}
  in
  match Stats.Bench_diff.artifact_of_string old_format with
  | Error e -> Alcotest.fail e
  | Ok a -> (
      check_bool "no date" true (a.Stats.Bench_diff.a_date = None);
      match a.Stats.Bench_diff.a_suites with
      | [ ("micro", [ e ]) ] ->
          check_bool "no minor words" true (e.Stats.Bench_diff.e_minor_words = None)
      | _ -> Alcotest.fail "unexpected suite shape")

let test_parse_errors_are_reported () =
  (match Stats.Bench_diff.artifact_of_string "{\"nope\":1}" with
  | Error e -> check_bool "names the missing field" true (contains e "suites")
  | Ok _ -> Alcotest.fail "expected an error");
  (match
     Stats.Bench_diff.artifact_of_string
       {|{"suites":{"micro":[{"name":"w"}]}}|}
   with
  | Error e -> check_bool "names the missing row field" true (contains e "mean_s")
  | Ok _ -> Alcotest.fail "expected an error");
  match Stats.Bench_diff.artifact_of_string "not json" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected a parse error"

(* ------------------------------------------------------------------ *)
(* Rendering                                                           *)

let test_pp_and_json_report () =
  let old_ = artifact [ ("s", [ entry ~minor:10_000. "w" 1.0 0.001 ]) ] in
  let new_ = artifact [ ("s", [ entry ~minor:20_000. "w" 2.0 0.001 ]) ] in
  let report = diff ~old_ ~new_ () in
  let text = Format.asprintf "%a" Stats.Bench_diff.pp report in
  check_bool "table names the workload" true (contains text "s/w");
  check_bool "summary counts the regression" true (contains text "1 regression");
  let json = Stats.Bench_diff.to_json report in
  match Option.bind (Obs.Json.member "rows" json) Obs.Json.to_list_opt with
  | Some [ r ] ->
      check_bool "row json carries verdicts" true
        (Option.bind (Obs.Json.member "time_regressed" r) Obs.Json.to_bool_opt
        = Some true)
  | _ -> Alcotest.fail "report json must carry one row"

(* A run whose suites the baseline lacks matches no row: the summary must
   say that nothing was compared, not count regressions over zero rows. *)
let test_pp_no_matched_rows () =
  let old_ = artifact [ ("mc", [ entry "w" 1.0 0.001 ]) ] in
  let new_ = artifact [ ("mc-alloc", [ entry "w" 9.0 0.001 ]) ] in
  let report = diff ~old_ ~new_ () in
  let text = Format.asprintf "%a" Stats.Bench_diff.pp report in
  check_bool "says no row was compared" true
    (contains text "no row compared: the artifacts share no row");
  check_bool "no count over zero rows" false (contains text "regression(s)");
  check_bool "unmatched rows still listed" true
    (contains text "only in new: mc-alloc/w")

(* Bench rows already carry their suite in their name: the report must not
   prefix it a second time. *)
let test_pp_suite_named_rows () =
  let old_ = artifact [ ("mc", [ entry "mc/w" 1.0 0.001 ]) ] in
  let new_ =
    artifact
      [
        ("mc", [ entry "mc/w" 1.0 0.001 ]);
        ("mc-alloc", [ entry "mc-alloc/w" 9.0 0.001 ]);
      ]
  in
  let text = Format.asprintf "%a" Stats.Bench_diff.pp (diff ~old_ ~new_ ()) in
  check_bool "note names the row once" true
    (contains text "only in new: mc-alloc/w");
  check_bool "no doubled suite" false (contains text "mc-alloc/mc-alloc/");
  check_bool "table names the row once" false (contains text "mc/mc/")

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "stats"
    [
      ( "bench-diff verdicts",
        [
          Alcotest.test_case "ratio + sigma" `Quick
            test_time_regression_needs_ratio_and_sigma;
          Alcotest.test_case "threshold" `Quick test_time_below_threshold_passes;
          Alcotest.test_case "alloc + floor" `Quick
            test_alloc_regression_and_min_words_floor;
          Alcotest.test_case "old artifacts" `Quick
            test_missing_minor_words_means_no_alloc_verdict;
          Alcotest.test_case "speedup lost" `Quick test_speedup_lost_policy;
          Alcotest.test_case "unmatched rows" `Quick
            test_only_old_and_only_new_never_fail;
        ] );
      ( "bench-diff parsing",
        [
          Alcotest.test_case "both generations" `Quick
            test_parse_both_artifact_generations;
          Alcotest.test_case "errors" `Quick test_parse_errors_are_reported;
        ] );
      ( "bench-diff report",
        [
          Alcotest.test_case "pp and json" `Quick test_pp_and_json_report;
          Alcotest.test_case "no matched rows" `Quick test_pp_no_matched_rows;
          Alcotest.test_case "suite-named rows" `Quick test_pp_suite_named_rows;
        ] );
    ]
