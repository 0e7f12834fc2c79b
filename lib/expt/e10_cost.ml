open Kernel

let name = "e10"
let title = "E10: failure-free cost - rounds and message copies"

type row = {
  label : string;
  n : int;
  t : int;
  decision_round : int;
  quiescent_round : int;
  messages : int;
  bytes : int;
}

let entries =
  [
    Registry.floodset;
    Registry.at_plus_2;
    Registry.at_plus_2_opt;
    Registry.hurfin_raynal;
    Registry.ct_diamond_s;
  ]

let measure configs =
  List.concat_map
    (fun (n, t) ->
      let config = Config.make ~n ~t in
      let quiet = Sim.Schedule.make ~model:Sim.Model.Es ~gst:Round.first [] in
      let proposals = Sim.Runner.distinct_proposals config in
      List.filter_map
        (fun entry ->
          if not (Registry.applicable entry config) then None
          else begin
            let registry = Obs.Metrics.create () in
            let trace =
              Sim.Runner.run
                ~sink:(Obs.Metrics.counting_sink registry)
                entry.Registry.algo config ~proposals quiet
            in
            Some
              {
                label = entry.Registry.label;
                n;
                t;
                decision_round =
                  (match Sim.Trace.global_decision_round trace with
                  | Some r -> Round.to_int r
                  | None -> 0);
                quiescent_round = trace.Sim.Trace.rounds_executed;
                messages =
                  Option.value ~default:0
                    (Stats.Summary.messages_of_metrics registry);
                bytes =
                  Option.value ~default:0
                    (Stats.Summary.bytes_of_metrics registry);
              }
          end)
        entries)
    configs

let run ppf =
  let rows = measure [ (5, 2); (9, 4); (15, 7); (25, 12) ] in
  let table =
    List.fold_left
      (fun table r ->
        Stats.Table.add_row table
          [
            r.label;
            Stats.Table.cell_int r.n;
            Stats.Table.cell_int r.t;
            Stats.Table.cell_int r.decision_round;
            Stats.Table.cell_int r.quiescent_round;
            Stats.Table.cell_int r.messages;
            Stats.Table.cell_int r.bytes;
          ])
      (Stats.Table.make
         ~headers:
           [ "algorithm"; "n"; "t"; "decision"; "quiescent"; "messages"; "bytes" ])
      rows
  in
  Format.fprintf ppf "@[<v>%s@,%a@,@]" title Stats.Table.render table
