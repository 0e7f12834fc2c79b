open Kernel

let name = "e2"
let title = "E2: the t+2 lower bound, executably"

type row = {
  n : int;
  t : int;
  fast_decides_at : int;
  frontier : int;
  attack_violations : int;
  at2_survives : bool;
}

(* The bivalence frontier of FloodSetWS from the witness's proposals,
   (0, 1, ..., 1). *)
let frontier_of config =
  let proposals = Mc.Attack.witness_proposals config in
  let spec =
    Mc.Distrib.make ~reduce:Mc.Distrib.Rdedup
      ~algo:Registry.floodset_ws.Registry.algo config
      (Mc.Distrib.Fixed proposals)
  in
  Mc.Exhaustive.frontier (Result.get_ok (Mc.Distrib.run spec)).Mc.Distrib.result

let measure configs =
  List.map
    (fun (n, t) ->
      let config = Config.make ~n ~t in
      let entry = Registry.floodset_ws in
      let fast_decides_at = Measure.sync_worst_case ~entry ~config in
      let attack = Mc.Attack.floodset_ws_witness config in
      let survivor =
        Mc.Attack.run_witness Registry.at_plus_2.Registry.algo config
      in
      {
        n;
        t;
        fast_decides_at;
        frontier = frontier_of config;
        attack_violations = List.length attack.Mc.Attack.violations;
        at2_survives = survivor.Mc.Attack.violations = [];
      })
    configs

let run ppf =
  let rows = measure Measure.standard_configs in
  let table =
    List.fold_left
      (fun table r ->
        Stats.Table.add_row table
          [
            Stats.Table.cell_int r.n;
            Stats.Table.cell_int r.t;
            Stats.Table.cell_int r.fast_decides_at;
            Stats.Table.cell_int r.frontier;
            Stats.Table.cell_int r.attack_violations;
            Stats.Table.cell_check (r.attack_violations > 0);
            Stats.Table.cell_check r.at2_survives;
          ])
      (Stats.Table.make
         ~headers:
           [
             "n";
             "t";
             "FloodSetWS sync";
             "bivalence frontier";
             "violations";
             "attack works";
             "A(t+2) survives";
           ])
      rows
  in
  Format.fprintf ppf "@[<v>%s@,%a@,@," title Stats.Table.render table;
  (* Show the Fig.-1-style construction once, in full. *)
  let config = Config.make ~n:3 ~t:1 in
  let report = Mc.Attack.floodset_ws_witness config in
  Format.fprintf ppf "The proof-guided run against FloodSetWS at %a:@,%a@,@,"
    Config.pp config Mc.Attack.pp_report report;
  Format.fprintf ppf "Space/time diagram (D=v decision, X crash):@,%a@,@,"
    Obs.Replay.pp_diagram
    (Result.get_ok (Obs.Replay.of_events report.Mc.Attack.events));
  (* The full five-run construction of Claim 5.1 (the paper's Fig. 1),
     machine-checked at (5, 2). *)
  let fig1 = Mc.Figure1.against_floodset_ws (Config.make ~n:5 ~t:2) in
  Format.fprintf ppf "%a@]" Mc.Figure1.pp_outcome fig1
