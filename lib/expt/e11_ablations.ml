open Kernel

let name = "e11"
let title = "E11: ablations - remove a mechanism, watch the predicted failure"

type row = {
  ablation : string;
  scenario : string;
  guarded : string;
  ablated : string;
  as_predicted : bool;
}

let agreement_broken trace = Sim.Props.check_agreement trace <> []

let halt_exchange_async () =
  let config = Config.make ~n:5 ~t:2 in
  (* Isolate p1 through round t+2 so its Phase-2 message is also unheard. *)
  let schedule =
    Mc.Attack.solo_split_schedule ~rounds:(Config.t config + 2) config
  in
  let proposals = Sim.Runner.distinct_proposals config in
  let run algo = Sim.Runner.run algo config ~proposals schedule in
  let guarded_trace = run Registry.at_plus_2.Registry.algo in
  let ablated_trace =
    run (Sim.Algorithm.Packed (module Indulgent.At_plus_2.No_halt_exchange))
  in
  {
    ablation = "no Halt exchange (Lemma 6)";
    scenario = "solo split through t+2";
    guarded =
      (if agreement_broken guarded_trace then "BROKEN" else "safe");
    ablated =
      (if agreement_broken ablated_trace then "agreement broken" else "safe");
    as_predicted =
      (not (agreement_broken guarded_trace))
      && agreement_broken ablated_trace;
  }

let halt_exchange_sync () =
  (* The ablation costs nothing in synchronous runs: still exactly t+2. *)
  let config = Config.make ~n:5 ~t:2 in
  let r =
    Measure.sync_sweep
      (Sim.Algorithm.Packed (module Indulgent.At_plus_2.No_halt_exchange))
      config
  in
  let safe =
    r.Mc.Exhaustive.violations = []
    && r.Mc.Exhaustive.crashed = []
    && r.Mc.Exhaustive.shard_failures = []
  in
  {
    ablation = "no Halt exchange (Lemma 6)";
    scenario = "exhaustive synchronous sweep";
    guarded = "t+2, safe";
    ablated =
      Printf.sprintf "worst %d, %s" r.Mc.Exhaustive.max_decision
        (if safe then "safe" else "BROKEN");
    as_predicted = r.Mc.Exhaustive.max_decision = Config.t config + 2 && safe;
  }

let third_guard () =
  let config = Config.make ~n:4 ~t:2 in
  let schedule = Workload.Partition.split config ~until:12 in
  let proposals = Sim.Runner.distinct_proposals config in
  let ablated_trace =
    Sim.Runner.run
      (Sim.Algorithm.Packed (module Indulgent.Af_plus_2.Unguarded))
      config ~proposals schedule
  in
  let guarded_refuses =
    match
      Sim.Runner.run Registry.af_plus_2.Registry.algo config ~proposals
        schedule
    with
    | (_ : Sim.Trace.t) -> false
    | exception Invalid_argument _ -> true
  in
  {
    ablation = "no t < n/3 guard (A(f+2))";
    scenario = "partition at n=4, t=2";
    guarded = (if guarded_refuses then "refused at init" else "ACCEPTED");
    ablated =
      (if agreement_broken ablated_trace then "agreement broken" else "safe");
    as_predicted = guarded_refuses && agreement_broken ablated_trace;
  }

let measure () = [ halt_exchange_async (); halt_exchange_sync (); third_guard () ]

let run ppf =
  let rows = measure () in
  let table =
    List.fold_left
      (fun table r ->
        Stats.Table.add_row table
          [
            r.ablation;
            r.scenario;
            r.guarded;
            r.ablated;
            Stats.Table.cell_check r.as_predicted;
          ])
      (Stats.Table.make
         ~headers:[ "ablation"; "scenario"; "paper version"; "ablated"; "match" ])
      rows
  in
  Format.fprintf ppf "@[<v>%s@,%a@,@]" title Stats.Table.render table
