open Kernel

let run ?sink ?max_rounds ?prof (Algorithm.Packed (module A)) config
    ~proposals schedule =
  let module E = Engine.Make (A) in
  E.run ?sink ?max_rounds ?prof config ~proposals schedule

let proposals_of_list values =
  List.fold_left
    (fun (i, acc) v -> (i + 1, Pid.Map.add (Pid.of_int i) v acc))
    (1, Pid.Map.empty) values
  |> snd

let distinct_proposals config =
  List.fold_left
    (fun acc p -> Pid.Map.add p (Value.of_int (Pid.to_int p)) acc)
    Pid.Map.empty (Config.processes config)

let binary_proposals config ~ones =
  List.fold_left
    (fun acc p ->
      let v = if Pid.Set.mem p ones then Value.one else Value.zero in
      Pid.Map.add p v acc)
    Pid.Map.empty (Config.processes config)

let uniform_proposals config v =
  List.fold_left
    (fun acc p -> Pid.Map.add p v acc)
    Pid.Map.empty (Config.processes config)
