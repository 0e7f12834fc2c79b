open Kernel

let name = "e1"
let title = "E1: worst-case decision round in synchronous runs"

type row = {
  label : string;
  n : int;
  t : int;
  predicted : int;
  measured : int;
  indulgent : bool;
}

let measure configs =
  List.concat_map
    (fun (n, t) ->
      let config = Config.make ~n ~t in
      List.filter_map
        (fun entry ->
          if not (Registry.applicable entry config) then None
          else
            Some
              {
                label = entry.Registry.label;
                n;
                t;
                predicted = entry.Registry.sync_worst_case config;
                measured = Measure.sync_worst_case ~entry ~config;
                indulgent = entry.Registry.indulgent;
              })
        Registry.all)
    configs

let run ppf =
  let rows = measure Measure.standard_configs in
  let table =
    List.fold_left
      (fun table r ->
        Stats.Table.add_row table
          [
            r.label;
            Stats.Table.cell_int r.n;
            Stats.Table.cell_int r.t;
            Stats.Table.cell_int r.predicted;
            Stats.Table.cell_int r.measured;
            Stats.Table.cell_bool r.indulgent;
            Stats.Table.cell_check (r.measured = r.predicted);
          ])
      (Stats.Table.make
         ~headers:
           [ "algorithm"; "n"; "t"; "predicted"; "measured"; "indulgent"; "match" ])
      rows
  in
  Format.fprintf ppf "@[<v>%s@,%a@,@]" title Stats.Table.render table
