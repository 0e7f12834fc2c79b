open Kernel
module J = Obs.Json

let ( let* ) = Result.bind

let field name conv json =
  match Option.bind (J.member name json) conv with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "bad or missing field %S" name)

let int_field name = field name J.to_int_opt
let string_field name = field name J.to_string_opt
let bool_field name = field name J.to_bool_opt

let list_field name conv json =
  let* items = field name J.to_list_opt json in
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | x :: rest ->
        let* v = conv x in
        go (v :: acc) rest
  in
  go [] items

(* Process sets as sorted element lists: [Pid.Set.elements] ascends and
   [of_ints] rebuilds canonically, so encodings are canonical whatever tree
   shape the set had. *)
let pid_set_to_json s =
  J.List (List.map (fun p -> J.Int (Pid.to_int p)) (Pid.Set.elements s))

let pid_set_of_json name json =
  let* ints =
    list_field name
      (fun j ->
        match J.to_int_opt j with
        | Some i when i >= 1 -> Ok i
        | _ -> Error (Printf.sprintf "bad pid in %S" name))
      json
  in
  Ok (Pid.Set.of_ints ints)

let choice_to_json = function
  | Serial.No_crash -> J.Obj [ ("act", J.String "none") ]
  | Serial.Crash { victim; receivers } ->
      J.Obj
        [
          ("act", J.String "crash");
          ("victim", J.Int (Pid.to_int victim));
          ("receivers", pid_set_to_json receivers);
        ]
  | Serial.Send_omit { culprit; dropped } ->
      J.Obj
        [
          ("act", J.String "send_omit");
          ("culprit", J.Int (Pid.to_int culprit));
          ("dropped", pid_set_to_json dropped);
        ]
  | Serial.Recv_omit { culprit; dropped } ->
      J.Obj
        [
          ("act", J.String "recv_omit");
          ("culprit", J.Int (Pid.to_int culprit));
          ("dropped", pid_set_to_json dropped);
        ]

let pid_field name json =
  let* i = int_field name json in
  if i >= 1 then Ok (Pid.of_int i)
  else Error (Printf.sprintf "bad or missing field %S" name)

let choice_of_json json =
  let* act = string_field "act" json in
  match act with
  | "none" -> Ok Serial.No_crash
  | "crash" ->
      let* victim = pid_field "victim" json in
      let* receivers = pid_set_of_json "receivers" json in
      Ok (Serial.Crash { victim; receivers })
  | "send_omit" ->
      let* culprit = pid_field "culprit" json in
      let* dropped = pid_set_of_json "dropped" json in
      Ok (Serial.Send_omit { culprit; dropped })
  | "recv_omit" ->
      let* culprit = pid_field "culprit" json in
      let* dropped = pid_set_of_json "dropped" json in
      Ok (Serial.Recv_omit { culprit; dropped })
  | other -> Error (Printf.sprintf "unknown choice act %S" other)

let violation_to_json = function
  | Sim.Props.Validity { pid; value } ->
      J.Obj
        [
          ("kind", J.String "validity");
          ("pid", J.Int (Pid.to_int pid));
          ("value", J.Int (Value.to_int value));
        ]
  | Sim.Props.Agreement { pid_a; value_a; pid_b; value_b } ->
      J.Obj
        [
          ("kind", J.String "agreement");
          ("pid_a", J.Int (Pid.to_int pid_a));
          ("value_a", J.Int (Value.to_int value_a));
          ("pid_b", J.Int (Pid.to_int pid_b));
          ("value_b", J.Int (Value.to_int value_b));
        ]
  | Sim.Props.Termination { undecided } ->
      J.Obj
        [
          ("kind", J.String "termination");
          ( "undecided",
            J.List (List.map (fun p -> J.Int (Pid.to_int p)) undecided) );
        ]
  | Sim.Props.Unsettled { undecided } ->
      J.Obj
        [
          ("kind", J.String "unsettled");
          ( "undecided",
            J.List (List.map (fun p -> J.Int (Pid.to_int p)) undecided) );
        ]

let pid_list_of_json name json =
  list_field name
    (fun j ->
      match J.to_int_opt j with
      | Some i when i >= 1 -> Ok (Pid.of_int i)
      | _ -> Error (Printf.sprintf "bad pid in %S" name))
    json

let violation_of_json json =
  let* kind = string_field "kind" json in
  match kind with
  | "validity" ->
      let* pid = pid_field "pid" json in
      let* value = int_field "value" json in
      Ok (Sim.Props.Validity { pid; value = Value.of_int value })
  | "agreement" ->
      let* pid_a = pid_field "pid_a" json in
      let* value_a = int_field "value_a" json in
      let* pid_b = pid_field "pid_b" json in
      let* value_b = int_field "value_b" json in
      Ok
        (Sim.Props.Agreement
           {
             pid_a;
             value_a = Value.of_int value_a;
             pid_b;
             value_b = Value.of_int value_b;
           })
  | "termination" ->
      let* undecided = pid_list_of_json "undecided" json in
      Ok (Sim.Props.Termination { undecided })
  | "unsettled" ->
      let* undecided = pid_list_of_json "undecided" json in
      Ok (Sim.Props.Unsettled { undecided })
  | other -> Error (Printf.sprintf "unknown violation kind %S" other)

let step_error_to_json (e : Sim.Engine.step_error) =
  J.Obj
    [
      ("algorithm", J.String e.algorithm);
      ("pid", J.Int (Pid.to_int e.pid));
      ("round", J.Int (Round.to_int e.round));
      ("reason", J.String e.reason);
    ]

let step_error_of_json json =
  let* algorithm = string_field "algorithm" json in
  let* pid = pid_field "pid" json in
  let* round = int_field "round" json in
  if round < 1 then Error "bad or missing field \"round\""
  else
    let* reason = string_field "reason" json in
    Ok
      { Sim.Engine.algorithm; pid; round = Round.of_int round; reason }

let stats_to_json (s : Dedup.stats) =
  J.Obj
    [
      ("hits", J.Int s.hits);
      ("misses", J.Int s.misses);
      ("entries", J.Int s.entries);
      ("edges", J.Int s.edges);
      ("spilled", J.Int s.spilled);
      ("snapshots", J.Int s.snapshots);
      ("restores", J.Int s.restores);
    ]

(* Absent in checkpoints written before the arena counters existed;
   decode as 0 so old sweep state stays resumable. *)
let opt_int_field name json =
  match J.member name json with
  | None -> Ok 0
  | Some _ -> int_field name json

let stats_of_json json =
  let* hits = int_field "hits" json in
  let* misses = int_field "misses" json in
  let* entries = int_field "entries" json in
  let* edges = int_field "edges" json in
  let* spilled = int_field "spilled" json in
  let* snapshots = opt_int_field "snapshots" json in
  let* restores = opt_int_field "restores" json in
  Ok { Dedup.hits; misses; entries; edges; spilled; snapshots; restores }

let choices_to_json cs = J.List (List.map choice_to_json cs)

let choices_of_json name json =
  list_field name choice_of_json json

let crashed_run_to_json (c : Exhaustive.crashed_run) =
  J.Obj
    [
      ("choices", choices_to_json c.choices);
      ("error", step_error_to_json c.error);
    ]

let crashed_run_of_json json =
  let* choices = choices_of_json "choices" json in
  let* error = field "error" Option.some json in
  let* error = step_error_of_json error in
  Ok { Exhaustive.choices; error }

let shard_failure_to_json (f : Exhaustive.shard_failure) =
  J.Obj
    [
      ("shard", J.Int f.shard);
      ("context", J.String f.context);
      ("message", J.String f.message);
    ]

let shard_failure_of_json json =
  let* shard = int_field "shard" json in
  let* context = string_field "context" json in
  let* message = string_field "message" json in
  Ok { Exhaustive.shard; context; message }

let violation_entry_to_json (choices, vs) =
  J.Obj
    [
      ("choices", choices_to_json choices);
      ("violations", J.List (List.map violation_to_json vs));
    ]

let violation_entry_of_json json =
  let* choices = choices_of_json "choices" json in
  let* vs = list_field "violations" violation_of_json json in
  Ok (choices, vs)

let valency_to_json = function
  | Exhaustive.Undecided -> J.Null
  | Exhaustive.Univalent v -> J.Obj [ ("univalent", J.Int (Value.to_int v)) ]
  | Exhaustive.Bivalent path -> J.Obj [ ("bivalent", choices_to_json path) ]

let valency_of_json json =
  match J.member "valency" json with
  | Some J.Null -> Ok Exhaustive.Undecided
  | Some (J.Obj [ ("univalent", J.Int v) ]) ->
      Ok (Exhaustive.Univalent (Value.of_int v))
  | Some (J.Obj [ ("bivalent", _) ] as j) ->
      Result.map (fun p -> Exhaustive.Bivalent p) (choices_of_json "bivalent" j)
      |> Result.map_error (fun msg -> "bad field \"valency\": " ^ msg)
  | _ -> Error "bad or missing field \"valency\""

let result_to_json (r : Exhaustive.result) =
  J.Obj
    [
      ("runs", J.Int r.runs);
      ("distinct_runs", J.Int r.distinct_runs);
      ("max_decision", J.Int r.max_decision);
      ( "min_decision",
        if r.min_decision = max_int then J.Null else J.Int r.min_decision );
      ( "max_witness",
        match r.max_witness with
        | None -> J.Null
        | Some cs -> choices_to_json cs );
      ("violations", J.List (List.map violation_entry_to_json r.violations));
      ("undecided_runs", J.Int r.undecided_runs);
      ("crashed", J.List (List.map crashed_run_to_json r.crashed));
      ( "shard_failures",
        J.List (List.map shard_failure_to_json r.shard_failures) );
      ("expired", J.Bool r.expired);
      ("valency", valency_to_json r.valency);
    ]

let result_of_json json =
  let* runs = int_field "runs" json in
  let* distinct_runs = int_field "distinct_runs" json in
  let* max_decision = int_field "max_decision" json in
  let* min_decision =
    match J.member "min_decision" json with
    | Some J.Null -> Ok max_int
    | Some j -> (
        match J.to_int_opt j with
        | Some i -> Ok i
        | None -> Error "bad or missing field \"min_decision\"")
    | None -> Error "bad or missing field \"min_decision\""
  in
  let* max_witness =
    match J.member "max_witness" json with
    | Some J.Null -> Ok None
    | Some (J.List _ as j) ->
        let* cs = choices_of_json "max_witness" (J.Obj [ ("max_witness", j) ]) in
        Ok (Some cs)
    | _ -> Error "bad or missing field \"max_witness\""
  in
  let* violations = list_field "violations" violation_entry_of_json json in
  let* undecided_runs = int_field "undecided_runs" json in
  let* crashed = list_field "crashed" crashed_run_of_json json in
  let* shard_failures = list_field "shard_failures" shard_failure_of_json json in
  let* expired = bool_field "expired" json in
  let* valency = valency_of_json json in
  Ok
    {
      Exhaustive.runs;
      distinct_runs;
      max_decision;
      min_decision;
      max_witness;
      violations;
      undecided_runs;
      crashed;
      shard_failures;
      expired;
      valency;
    }

let result_equal a b =
  String.equal (J.to_string (result_to_json a)) (J.to_string (result_to_json b))
