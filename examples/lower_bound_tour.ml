(* A guided tour of the paper's lower bound (Proposition 1): why every
   indulgent consensus algorithm has a synchronous run that needs t + 2
   rounds, told with executable artifacts at n = 3, t = 1.

   Run with:  dune exec examples/lower_bound_tour.exe *)

open Kernel

let fast = Sim.Algorithm.Packed (module Baselines.Floodset_ws)
let indulgent = Sim.Algorithm.Packed (module Indulgent.At_plus_2.Standard)

(* Every serial synchronous run under every binary proposal assignment,
   with all receiver subsets per crash, through the sweep driver. *)
let sweep_all algo config =
  let spec =
    Mc.Distrib.make ~policy:Mc.Serial.All_subsets ~algo config
      Mc.Distrib.Binary
  in
  Result.get_ok (Mc.Distrib.run spec)

let () =
  let config = Config.make ~n:3 ~t:1 in
  Format.printf
    "The inherent price of indulgence, executable tour (n=3, t=1)@.@.";

  (* Step 1 — the fast algorithm really is fast: every serial synchronous
     run of FloodSetWS reaches a global decision at t+1 = 2. *)
  let run = sweep_all fast config in
  let sweep = run.Mc.Distrib.result in
  Format.printf
    "1. FloodSetWS over ALL %d serial synchronous runs: decisions in rounds \
     [%d, %d], %d violations.@.   It meets the SCS optimum t+1 = 2.@.@."
    sweep.Mc.Exhaustive.runs sweep.Mc.Exhaustive.min_decision
    sweep.Mc.Exhaustive.max_decision
    (List.length sweep.Mc.Exhaustive.violations);

  (* Step 2 — Lemma 3: some initial configuration is bivalent; the first
     is the first bivalent task (assignment) of that sweep. *)
  (match
     List.find_opt
       (fun (e : Mc.Checkpoint.entry) -> Mc.Exhaustive.frontier e.result >= 0)
       run.Mc.Distrib.completed
   with
  | Some e ->
      let assignments = Mc.Exhaustive.binary_assignments config in
      let proposals = List.nth assignments e.task in
      let values =
        List.map (fun (_, v) -> Value.to_int v) (Pid.Map.bindings proposals)
      in
      Format.printf
        "2. Lemma 3: proposals %a form a BIVALENT initial configuration —@.\
        \   the adversary's crash choices alone steer the decision to 0 or 1.@.@."
        (Format.pp_print_list
           ~pp_sep:(fun ppf () -> Format.fprintf ppf ",")
           Format.pp_print_int)
        values
  | None -> Format.printf "2. unexpectedly, no bivalent initial configuration@.");

  (* Step 3 — the frontier: bivalence survives to round t-1 and no further.
     After round t every serial partial run is univalent... *)
  let proposals = Mc.Attack.witness_proposals config in
  let spec = Mc.Distrib.make ~algo:fast config (Mc.Distrib.Fixed proposals) in
  let frontier =
    Mc.Exhaustive.frontier (Result.get_ok (Mc.Distrib.run spec)).result
  in
  Format.printf
    "3. Lemma 4: the bivalence frontier of FloodSetWS is round %d (= t-1).@.\
    \   Every t-round serial partial run is univalent — in the synchronous@.\
    \   world the decision looks settled one round before it is announced.@.@."
    frontier;

  (* Step 4 — but ES lets the adversary fake a crash. The proof-guided
     schedule makes p3 falsely suspect p1 (a delayed message), then crashes
     p2, the only witness of p1's survival. *)
  let report = Mc.Attack.floodset_ws_witness config in
  Format.printf
    "4. The ES attack: delay p1 -> p3 in round 1 (false suspicion), crash p2 \
     in round 2@.   heard only by p1. At the end of round t+1:@.";
  Format.printf "%a@.@." Obs.Replay.pp_diagram
    (Result.get_ok (Obs.Replay.of_events report.Mc.Attack.events));
  List.iter
    (fun v -> Format.printf "   %a@." Sim.Props.pp_violation v)
    report.Mc.Attack.violations;
  Format.printf
    "   p1 cannot distinguish this run from a synchronous run where p3 \
     crashed;@.   p3 cannot distinguish it from one where p1 crashed. Both \
     are wrong.@.@.";

  (* Step 5 — A_{t+2} under the very same schedule. *)
  let survivor = Mc.Attack.run_witness indulgent config in
  let trace = survivor.Mc.Attack.trace in
  Format.printf
    "5. A(t+2) on the SAME schedule: %d violation(s); decisions %a.@."
    (List.length survivor.Mc.Attack.violations)
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.fprintf ppf ", ")
       (fun ppf (d : Sim.Trace.decision) ->
         Format.fprintf ppf "%a=%a@@r%d" Pid.pp d.pid Value.pp d.value
           (Round.to_int d.round)))
    trace.Sim.Trace.decisions;
  Format.printf
    "   The extra round of suspicion exchange detects the ambiguity and \
     falls@.   back to the underlying consensus — safety is preserved.@.@.";

  (* Step 6 — and in synchronous runs A_{t+2} pays exactly one round. *)
  let sweep2 = (sweep_all indulgent config).Mc.Distrib.result in
  Format.printf
    "6. A(t+2) over ALL %d serial synchronous runs: decisions in rounds \
     [%d, %d].@.   t+2 = %d: the inherent price of indulgence is one round.@."
    sweep2.Mc.Exhaustive.runs sweep2.Mc.Exhaustive.min_decision
    sweep2.Mc.Exhaustive.max_decision
    (Config.t config + 2)
