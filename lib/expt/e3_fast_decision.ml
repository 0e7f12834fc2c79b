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

let measure configs =
  List.concat_map
    (fun (n, t) ->
      let config = Config.make ~n ~t in
      List.map
        (fun entry ->
          let r = Measure.sync_sweep entry.Registry.algo config in
          {
            variant = entry.Registry.label;
            n;
            t;
            min_decision = r.Mc.Exhaustive.min_decision;
            max_decision = r.Mc.Exhaustive.max_decision;
            runs = r.Mc.Exhaustive.runs;
            safe =
              r.Mc.Exhaustive.violations = []
              && r.Mc.Exhaustive.crashed = []
              && r.Mc.Exhaustive.shard_failures = [];
          })
        variants)
    configs

let run ppf =
  let rows = measure Measure.standard_configs in
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
