open Kernel

type check = { claim : string; ok : bool }

(* A measurement that raises [Failure] (a violation, a crashed run) fails
   its claim with the message instead of aborting the certificate. *)
let check claim ok =
  match ok () with
  | ok -> { claim; ok }
  | exception Failure msg -> { claim = claim ^ ": " ^ msg; ok = false }

let headline_rounds () =
  check "E1: exhaustive worst cases equal every registry prediction to (7,3)"
    (fun () ->
      List.for_all
        (fun (r : E1_price.row) -> r.measured = r.predicted)
        (E1_price.measure Measure.standard_configs))

let lower_bound () =
  check
    "E2: FloodSetWS's exhaustive worst case t+1, frontier t-1; it breaks in \
     ES, A(t+2) survives" (fun () ->
      List.for_all
        (fun (r : E2_lower_bound.row) ->
          r.frontier = r.t - 1 && r.attack_violations > 0 && r.at2_survives
          && r.fast_decides_at = r.t + 1)
        (E2_lower_bound.measure Measure.standard_configs))

let figure1 () =
  check "Fig. 1: all five-run obligations hold at (5,2)" (fun () ->
      Mc.Figure1.all_hold
        (Mc.Figure1.against_floodset_ws (Config.make ~n:5 ~t:2)))

let fast_decision () =
  check "E3: A(t+2) decides at exactly t+2 in every run of exhaustive sweeps"
    (fun () ->
      List.for_all
        (fun (r : E3_fast_decision.row) ->
          r.safe && r.min_decision = r.t + 2 && r.max_decision = r.t + 2)
        (E3_fast_decision.measure Measure.standard_configs))

let failure_free () =
  check "E5: the Fig. 4 optimization decides at round 2 failure-free"
    (fun () ->
      List.exists
        (fun (r : E5_failure_free.row) ->
          r.label = "A(t+2)+ff" && r.failure_free = 2 && r.sync_worst <= 4)
        (E5_failure_free.measure (Config.make ~n:5 ~t:2)))

let early_decision () =
  check "E6: A(f+2) decides at exactly f+2 for every f" (fun () ->
      List.for_all
        (fun (r : E6_early.row) -> r.af2_worst = r.f + 2)
        (E6_early.measure ~samples:60 (Config.make ~n:7 ~t:2)))

let eventual_decision () =
  check "E7: A(f+2) achieves k+f+2 exactly; AMR stays within k+2f+2"
    (fun () ->
      List.for_all
        (fun (r : E7_eventual.row) ->
          r.af2_worst = r.af2_bound && r.amr_worst <= r.amr_bound)
        (E7_eventual.measure ~samples:30 (Config.make ~n:7 ~t:2) ~ks:[ 0; 3 ]))

let failure_detectors () =
  check "E8: the Section-4 simulation satisfies the <>P/<>S axioms" (fun () ->
      List.for_all
        (fun (r : E8_fd.row) ->
          r.completeness_ok = r.runs
          && r.dp_accuracy_ok = r.runs
          && r.ds_accuracy_ok = r.runs
          && (r.gst <> 1 || r.p_accuracy_ok = r.runs))
        (E8_fd.measure ~samples:25 (Config.make ~n:5 ~t:2) [ 1; 4 ]))

let resilience () =
  check "E9: solo split breaks fast algorithms; partition breaks t >= n/2"
    (fun () ->
      List.for_all
        (fun (d : E9_resilience.demo) -> d.violated = d.expected_violation)
        (E9_resilience.measure ()))

let ablations () =
  check "E11: removing Halt exchange / the n/3 guard breaks as predicted"
    (fun () ->
      List.for_all
        (fun (r : E11_ablations.row) -> r.as_predicted)
        (E11_ablations.measure ()))

let run () =
  [
    headline_rounds ();
    lower_bound ();
    figure1 ();
    fast_decision ();
    failure_free ();
    early_decision ();
    eventual_decision ();
    failure_detectors ();
    resilience ();
    ablations ();
  ]

let all_ok checks = List.for_all (fun c -> c.ok) checks

let print ppf checks =
  List.iter
    (fun c ->
      Format.fprintf ppf "  [%s] %s@." (if c.ok then "ok" else "FAIL") c.claim)
    checks;
  let ok = all_ok checks in
  Format.fprintf ppf "%s@."
    (if ok then "reproduction certificate: ALL CLAIMS HOLD"
     else "reproduction certificate: FAILURES ABOVE");
  ok
