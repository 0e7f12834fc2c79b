
open Helpers

(* ------------------------------------------------------------------ *)
(* Registry                                                            *)

let test_registry_lookup () =
  check_bool "find" true (Expt.Registry.find "A(t+2)" <> None);
  check_bool "missing" true (Expt.Registry.find "nope" = None);
  check_int "entries" 13 (List.length Expt.Registry.all)

let test_registry_applicability () =
  let c52 = config ~n:5 ~t:2 in
  let c72 = config ~n:7 ~t:2 in
  check_bool "A(t+2) at (5,2)" true
    (Expt.Registry.applicable Expt.Registry.at_plus_2 c52);
  check_bool "A(f+2) not at (5,2)" false
    (Expt.Registry.applicable Expt.Registry.af_plus_2 c52);
  check_bool "A(f+2) at (7,2)" true
    (Expt.Registry.applicable Expt.Registry.af_plus_2 c72);
  check_bool "FloodSet anywhere" true
    (Expt.Registry.applicable Expt.Registry.floodset (config ~n:4 ~t:3))

let test_registry_predictions () =
  let c = config ~n:5 ~t:2 in
  check_int "FloodSet" 3 (Expt.Registry.floodset.Expt.Registry.sync_worst_case c);
  check_int "A(t+2)" 4 (Expt.Registry.at_plus_2.Expt.Registry.sync_worst_case c);
  check_int "HR" 6 (Expt.Registry.hurfin_raynal.Expt.Registry.sync_worst_case c);
  check_int "CT" 12 (Expt.Registry.ct_diamond_s.Expt.Registry.sync_worst_case c)

(* The runs the exhaustive sweeps leave out — several crashes in one round,
   crash-round delays — sampled for every entry: each run is safe, decides,
   and never decides after the entry's predicted worst case. "After", not
   "equal": AMR-leader peaks at 4 at (7,2) against a predicted 6. *)
let test_registry_sampled_within_prediction () =
  List.iter
    (fun (n, t) ->
      let c = config ~n ~t in
      let proposals = Sim.Runner.distinct_proposals c in
      List.iter
        (fun (entry : Expt.Registry.entry) ->
          if Expt.Registry.applicable entry c then
            let bound = entry.sync_worst_case c in
            List.iter
              (fun (family, make) ->
                for seed = 0 to 299 do
                  let schedule = make (Kernel.Rng.create ~seed) in
                  let trace =
                    Sim.Runner.run entry.algo c ~proposals schedule
                  in
                  let what =
                    Format.asprintf "%s at %a, %s seed %d" entry.label
                      Kernel.Config.pp c family seed
                  in
                  check_bool (what ^ ": safe") true (Sim.Props.check trace = []);
                  match Sim.Trace.global_decision_round trace with
                  | None -> Alcotest.fail (what ^ ": undecided")
                  | Some r ->
                      check_bool
                        (Printf.sprintf "%s: decides by %d" what bound)
                        true
                        (Kernel.Round.to_int r <= bound)
                done)
              [
                ( "synchronous",
                  fun rng -> Workload.Random_runs.synchronous rng c () );
                ( "with delays",
                  fun rng ->
                    Workload.Random_runs.synchronous_with_delays rng c () );
              ])
        Expt.Registry.all)
    (Expt.Measure.standard_configs @ [ (7, 2) ])

(* A violation fails the measurement, naming the run that broke. *)
let test_sync_worst_case_names_violation () =
  let entry =
    { Expt.Registry.floodset with algo = Fuzz.Faulty.eager_floodset }
  in
  match Expt.Measure.sync_worst_case ~entry ~config:(config ~n:4 ~t:1) with
  | worst -> Alcotest.failf "no failure, worst case %d" worst
  | exception Failure msg ->
      check_bool "names the entry and size" true
        (contains msg "FloodSet on (n=4, t=1)");
      check_bool "names the violation" true (contains msg "uniform agreement");
      check_bool "names the choice list" true (contains msg "under p1!{p2} - -");
      check_bool "one line" false (String.contains msg '\n')

(* ------------------------------------------------------------------ *)
(* Experiments (reduced parameters: these are smoke + correctness)     *)

let test_e1_small () =
  let rows = Expt.E1_price.measure [ (3, 1); (5, 2) ] in
  check_bool "rows present" true (List.length rows >= 10);
  List.iter
    (fun (r : Expt.E1_price.row) ->
      check_int
        (Printf.sprintf "%s at n=%d matches prediction" r.label r.n)
        r.predicted r.measured)
    rows

(* Every frontier is measured: none of them comes from a fallback. *)
let test_e2_small () =
  let rows = Expt.E2_lower_bound.measure [ (3, 1); (5, 2); (7, 3) ] in
  List.iter
    (fun (r : Expt.E2_lower_bound.row) ->
      check_int "fast algorithm decides at t+1" (r.t + 1) r.fast_decides_at;
      check_int "frontier t-1" (r.t - 1) r.frontier;
      check_bool "attack works" true (r.attack_violations > 0);
      check_bool "A(t+2) survives" true r.at2_survives)
    rows

let test_e5_small () =
  let rows = Expt.E5_failure_free.measure (config ~n:5 ~t:2) in
  let find label =
    List.find (fun (r : Expt.E5_failure_free.row) -> r.label = label) rows
  in
  check_int "optimized decides at 2" 2 (find "A(t+2)+ff").failure_free;
  check_int "standard decides at t+2" 4 (find "A(t+2)").failure_free;
  check_bool "optimized worst within t+2" true
    ((find "A(t+2)+ff").sync_worst <= 4)

let test_e6_small () =
  let rows = Expt.E6_early.measure ~samples:60 (config ~n:7 ~t:2) in
  List.iter
    (fun (r : Expt.E6_early.row) ->
      check_bool
        (Printf.sprintf "A(f+2) within f+2 at f=%d" r.f)
        true (r.af2_worst <= r.f + 2);
      check_int "A(t+2) pinned at t+2" 4 r.at2_worst)
    rows

let test_e7_small () =
  let rows =
    Expt.E7_eventual.measure ~samples:30 (config ~n:7 ~t:2) ~ks:[ 0; 2 ]
  in
  List.iter
    (fun (r : Expt.E7_eventual.row) ->
      check_bool "A(f+2) within k+f+2" true (r.af2_worst <= r.af2_bound);
      check_bool "AMR within k+2f+2" true (r.amr_worst <= r.amr_bound))
    rows

let test_e8_small () =
  let rows = Expt.E8_fd.measure ~samples:20 (config ~n:5 ~t:2) [ 1; 4 ] in
  List.iter
    (fun (r : Expt.E8_fd.row) ->
      check_int "completeness always" r.runs r.completeness_ok;
      check_int "<>P always" r.runs r.dp_accuracy_ok;
      check_int "<>S always" r.runs r.ds_accuracy_ok;
      if r.gst = 1 then check_int "P holds when synchronous" r.runs r.p_accuracy_ok)
    rows

let test_e9 () =
  List.iter
    (fun (d : Expt.E9_resilience.demo) ->
      check_bool (d.what ^ "/" ^ d.algorithm) d.expected_violation d.violated)
    (Expt.E9_resilience.measure ())

let test_e10 () =
  let rows = Expt.E10_cost.measure [ (5, 2) ] in
  List.iter
    (fun (r : Expt.E10_cost.row) ->
      check_bool "decided" true (r.decision_round > 0);
      check_bool "messages consistent with rounds" true
        (r.messages <= r.quiescent_round * r.n * r.n);
      (* every copy carries at least its 7-byte header *)
      check_bool "bytes at least headers" true (r.bytes >= 7 * r.messages))
    rows

let test_e11 () =
  List.iter
    (fun (r : Expt.E11_ablations.row) ->
      check_bool (r.ablation ^ " / " ^ r.scenario) true r.as_predicted)
    (Expt.E11_ablations.measure ())

let test_e12 () =
  let rows = Expt.E12_crossover.measure ~samples:40 (config ~n:5 ~t:2) in
  List.iter
    (fun (r : Expt.E12_crossover.row) ->
      (* the paper's trade: optimists have better means under random
         crashes, the optimized A(t+2) has the bounded tail *)
      check_bool "opt max within t+2" true (r.opt_max <= 4);
      check_bool "opt mean beats or ties plain A(t+2)" true
        (r.opt_mean <= r.at2_mean +. 1e-9);
      check_bool "A(t+2) flat at t+2" true
        (r.at2_mean = 4.0 && r.at2_max = 4);
      if r.crashes = 0 then
        check_bool "failure-free: opt ties HR at 2" true
          (r.opt_mean = 2.0 && r.hr_mean = 2.0))
      (* HR's 2t+2 tail vs the opt's t+2 cap is certified by E1's
         exhaustive sweeps; random sampling at this size need not surface
         it. *)
    rows

let test_e13 () =
  let rows = Expt.E13_omissions.measure () in
  check_int "eight rows" 8 (List.length rows);
  List.iter
    (fun (r : Expt.E13_omissions.row) ->
      let label =
        Printf.sprintf "%s / %s" r.algorithm
          (Sim.Model.faults_to_string r.faults)
      in
      check_bool (label ^ " safety as expected") r.expected_safe
        (r.violations = 0);
      check_bool (label ^ " ran") true (r.runs > 0);
      (* omission menus only enlarge the crash-only space *)
      if r.faults <> Sim.Model.Crash_only then
        check_bool (label ^ " bigger than crash-only") true (r.runs > 49);
      if r.algorithm = "A(t+2)" then (
        check_int (label ^ " earliest decision at t+2") (r.t + 2)
          r.min_decision;
        if r.faults = Sim.Model.Crash_only then
          check_int (label ^ " crash-only flat at t+2") (r.t + 2)
            r.max_decision
        else
          (* the measured shift: omitters starve the rotation *)
          check_bool (label ^ " decisions shift later") true
            (r.max_decision > r.t + 2)))
    rows

let test_suite_index () =
  check_int "thirteen experiments" 13 (List.length Expt.Suite.all);
  check_bool "find e1" true (Expt.Suite.find "e1" <> None);
  check_bool "find e12" true (Expt.Suite.find "e12" <> None);
  check_bool "find e13" true (Expt.Suite.find "e13" <> None);
  check_bool "missing" true (Expt.Suite.find "e14" = None)

let test_verify_certificate () =
  let checks = Expt.Verify.run () in
  check_int "ten claims" 10 (List.length checks);
  List.iter
    (fun (c : Expt.Verify.check) -> check_bool c.claim true c.ok)
    checks;
  check_bool "all ok" true (Expt.Verify.all_ok checks)

(* Stats helpers used by the experiment tables. *)
let test_stats_table () =
  let t =
    Stats.Table.add_rows
      (Stats.Table.make ~headers:[ "a"; "b" ])
      [ [ "1"; "22" ]; [ "333"; "4" ] ]
  in
  let rendered = Format.asprintf "%a" Stats.Table.render t in
  check_bool "contains rule" true (String.length rendered > 0);
  check_bool "aligned" true
    (String.split_on_char '\n' rendered
    |> List.for_all (fun line ->
           line = "" || String.length line = String.length "+-----+----+"));
  Alcotest.check_raises "width mismatch"
    (Invalid_argument "Table.add_row: 1 cells for 2 columns") (fun () ->
      ignore (Stats.Table.add_row t [ "x" ]))

let test_stats_summary () =
  match Stats.Summary.of_list [ 3; 1; 2 ] with
  | None -> Alcotest.fail "summary"
  | Some s ->
      check_int "count" 3 s.Stats.Summary.count;
      check_int "min" 1 s.Stats.Summary.min;
      check_int "max" 3 s.Stats.Summary.max;
      check_bool "mean" true (abs_float (s.Stats.Summary.mean -. 2.0) < 1e-9);
      check_bool "empty" true (Stats.Summary.of_list [] = None)

let () =
  Alcotest.run "expt"
    [
      ( "registry",
        [
          Alcotest.test_case "lookup" `Quick test_registry_lookup;
          Alcotest.test_case "applicability" `Quick test_registry_applicability;
          Alcotest.test_case "predictions" `Quick test_registry_predictions;
          Alcotest.test_case "sampled runs within every prediction" `Quick
            test_registry_sampled_within_prediction;
          Alcotest.test_case "a violation fails the worst case" `Quick
            test_sync_worst_case_names_violation;
        ] );
      ( "experiments",
        [
          Alcotest.test_case "e1 matches predictions" `Slow test_e1_small;
          Alcotest.test_case "e2 lower bound" `Slow test_e2_small;
          Alcotest.test_case "e5 failure-free" `Quick test_e5_small;
          Alcotest.test_case "e6 early decision" `Slow test_e6_small;
          Alcotest.test_case "e7 eventual decision" `Slow test_e7_small;
          Alcotest.test_case "e8 failure detectors" `Quick test_e8_small;
          Alcotest.test_case "e9 resilience" `Quick test_e9;
          Alcotest.test_case "e10 cost" `Quick test_e10;
          Alcotest.test_case "e11 ablations" `Quick test_e11;
          Alcotest.test_case "e12 crossover" `Slow test_e12;
          Alcotest.test_case "e13 omissions" `Slow test_e13;
          Alcotest.test_case "suite index" `Quick test_suite_index;
          Alcotest.test_case "reproduction certificate" `Slow
            test_verify_certificate;
        ] );
      ( "stats",
        [
          Alcotest.test_case "table" `Quick test_stats_table;
          Alcotest.test_case "summary" `Quick test_stats_summary;
        ] );
    ]
