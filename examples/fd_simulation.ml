(* Section 4 of the paper: simulating the unreliable failure detectors <>P
   and <>S from the eventually synchronous model, by taking each round's
   suspicions (senders whose round message did not arrive in-round) as the
   detector output.

   This example builds one asynchronous-then-synchronous schedule, prints
   the simulated detector output round by round, and checks the detector
   axioms: strong completeness, eventual strong accuracy (<>P), eventual
   weak accuracy (<>S), and where exactly perfect accuracy (P) fails.

   Run with:  dune exec examples/fd_simulation.exe *)

open Kernel

let () =
  let config = Config.make ~n:4 ~t:1 in
  (* Rounds 1-2 are asynchronous: p1's messages to p4 are delayed. p3
     crashes in round 4 (after the network has stabilised), heard by p2
     and p4 but not p1. *)
  let n = Config.n config in
  let late_to_p4 =
    Sim.Schedule.delay ~n ~except:(Pid.Set.of_ints [ 2; 3 ]) (Pid.of_int 1)
      ~until:(Round.of_int 3)
  in
  let schedule =
    Sim.Schedule.make ~model:Sim.Model.Es ~gst:(Round.of_int 3)
      [
        late_to_p4;
        late_to_p4;
        Sim.Schedule.empty_plan;
        Sim.Schedule.crash ~n
          ~heard_by:(Pid.Set.of_ints [ 2; 4 ])
          (Pid.of_int 3);
      ]
  in
  Sim.Schedule.validate_exn config schedule;
  Format.printf "schedule:@.%a@.@." Sim.Schedule.pp schedule;

  Format.printf "simulated failure-detector output (suspected sets):@.";
  List.iter
    (fun (receiver, round, suspected) ->
      if not (Pid.Set.is_empty suspected) then
        Format.printf "  round %d at %a: %a@." (Round.to_int round) Pid.pp
          receiver Pid.Set.pp suspected)
    (Fd.Simulate.history config schedule ~rounds:6);

  Format.printf "@.axioms:@.";
  let report name (r : Fd.Check.report) =
    Format.printf "  %-28s %s%s@." name
      (if r.Fd.Check.holds then "holds" else "FAILS")
      (match (r.Fd.Check.witness_round, r.Fd.Check.counterexample) with
      | Some w, _ -> Printf.sprintf " (from round %d on)" (Round.to_int w)
      | None, Some (recv, susp, round) ->
          Format.asprintf " (%a falsely suspects %a in round %d)" Pid.pp recv
            Pid.pp susp (Round.to_int round)
      | None, None -> "")
  in
  report "strong completeness" (Fd.Check.strong_completeness config schedule);
  report "<>P eventual strong accuracy"
    (Fd.Check.eventual_strong_accuracy config schedule);
  let ds, candidate = Fd.Check.eventual_weak_accuracy config schedule in
  report "<>S eventual weak accuracy" ds;
  (match candidate with
  | Some p ->
      Format.printf "    (eventually never suspected: %a)@." Pid.pp p
  | None -> ());
  report "P accuracy" (Fd.Check.perfect_accuracy config schedule);
  Format.printf "@.false suspicions (the ambiguity indulgence forgives):@.";
  List.iter
    (fun (receiver, suspect, round) ->
      Format.printf "  %a suspected %a in round %d, but %a had not crashed@."
        Pid.pp receiver Pid.pp suspect (Round.to_int round) Pid.pp suspect)
    (Fd.Check.false_suspicions config schedule)
