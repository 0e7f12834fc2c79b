open Kernel

let name = "e3"
let title = "E3: A(t+2) fast decision = t+2, independent of C"

type row = {
  variant : string;
  n : int;
  t : int;
  min_decision : int;
  max_decision : int;
  runs : int;
  safe : bool;
}

let variants =
  [ Registry.at_plus_2; Registry.at_plus_2_slow; Registry.a_diamond_s ]

let measure ?(seed = 23) configs =
  List.concat_map
    (fun (n, t) ->
      let config = Config.make ~n ~t in
      List.map
        (fun entry ->
          let algo = entry.Registry.algo in
          let proposals = Sim.Runner.distinct_proposals config in
          if n <= 4 then begin
            let sweep =
              (Result.get_ok
                 (Mc.Distrib.run (Mc.Distrib.make ~algo config Mc.Distrib.Binary)))
                .Mc.Distrib.result
            in
            {
              variant = entry.Registry.label;
              n;
              t;
              min_decision = sweep.Mc.Exhaustive.min_decision;
              max_decision = sweep.Mc.Exhaustive.max_decision;
              runs = sweep.Mc.Exhaustive.runs;
              safe = sweep.Mc.Exhaustive.violations = [];
            }
          end
          else begin
            let cascades =
              Workload.Search.over ~algo ~config ~proposals
                (List.to_seq (List.map snd (Workload.Cascade.all_named config)))
            in
            let random =
              Workload.Search.random_synchronous ~samples:200
                ~with_delays:true ~seed ~algo ~config ~proposals ()
            in
            let plain =
              Workload.Search.random_synchronous ~samples:200 ~seed:(seed + 1)
                ~algo ~config ~proposals ()
            in
            let outcomes = [ cascades; random; plain ] in
            {
              variant = entry.Registry.label;
              n;
              t;
              (* Search tracks only the worst; re-run the quiet schedule for
                 the best case. *)
              min_decision =
                Option.value
                  (Measure.decision_round_on entry config
                     (Sim.Schedule.make ~model:Sim.Model.Es ~gst:Round.first []))
                  ~default:0;
              max_decision =
                List.fold_left
                  (fun acc o -> max acc o.Workload.Search.worst_round)
                  0 outcomes;
              runs =
                List.fold_left
                  (fun acc o -> acc + o.Workload.Search.runs)
                  0 outcomes;
              safe =
                List.for_all
                  (fun o -> o.Workload.Search.violations = [])
                  outcomes;
            }
          end)
        variants)
    configs

let run ppf =
  let rows = measure [ (3, 1); (4, 1); (5, 2); (7, 3) ] in
  let table =
    List.fold_left
      (fun table r ->
        let expected = r.t + 2 in
        Stats.Table.add_row table
          [
            r.variant;
            Stats.Table.cell_int r.n;
            Stats.Table.cell_int r.t;
            Stats.Table.cell_int r.min_decision;
            Stats.Table.cell_int r.max_decision;
            Stats.Table.cell_int r.runs;
            Stats.Table.cell_check r.safe;
            Stats.Table.cell_check
              (r.min_decision = expected && r.max_decision = expected);
          ])
      (Stats.Table.make
         ~headers:
           [
             "variant";
             "n";
             "t";
             "min decision";
             "max decision";
             "runs";
             "safe";
             "= t+2";
           ])
      rows
  in
  Format.fprintf ppf "@[<v>%s@,%a@,@]" title Stats.Table.render table
