open Kernel

let name = "e5"
let title = "E5: failure-free optimization decides at round 2"

type row = {
  label : string;
  failure_free : int;
  sync_worst : int;
  safe_async : bool;
}

let entries =
  [
    Registry.at_plus_2_opt;
    Registry.at_plus_2;
    Registry.hurfin_raynal;
    Registry.ct_diamond_s;
    Registry.floodset;
  ]

let measure ?(seed = 43) config =
  let proposals = Sim.Runner.distinct_proposals config in
  let quiet = Sim.Schedule.make ~model:Sim.Model.Es ~gst:Round.first [] in
  List.map
    (fun entry ->
      let failure_free =
        Sim.Runner.run entry.Registry.algo config ~proposals quiet
        |> Sim.Trace.global_decision_round
        |> Option.fold ~none:0 ~some:Round.to_int
      in
      let sync_worst = Measure.sync_worst_case ~entry ~config in
      let safe_async =
        if not entry.Registry.indulgent then
          (* Not expected to be safe in ES; measured by E9 instead. *)
          false
        else begin
          let outcome =
            Workload.Search.random_es ~samples:150 ~seed ~algo:entry.Registry.algo
              ~config ~proposals ()
          in
          outcome.Workload.Search.violations = []
        end
      in
      { label = entry.Registry.label; failure_free; sync_worst; safe_async })
    entries

let run ppf =
  let config = Config.make ~n:5 ~t:2 in
  let rows = measure config in
  let table =
    List.fold_left
      (fun table r ->
        Stats.Table.add_row table
          [
            r.label;
            Stats.Table.cell_int r.failure_free;
            Stats.Table.cell_int r.sync_worst;
            (if r.safe_async then "yes" else "n/a");
          ])
      (Stats.Table.make
         ~headers:[ "algorithm"; "failure-free"; "sync worst"; "ES-safe" ])
      rows
  in
  Format.fprintf ppf
    "@[<v>%s (n=5, t=2; two rounds is optimal for well-behaved runs [11])@,%a@,@]"
    title Stats.Table.render table
