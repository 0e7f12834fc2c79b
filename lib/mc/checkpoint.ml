module J = Obs.Json

let ( let* ) = Result.bind
let version = 2
let magic = "ipi-checkpoint"

type entry = {
  task : int;
  result : Exhaustive.result;
  stats : Dedup.stats option;
  edges : int;
}

type t = {
  commit : string;
  params : J.t;
  total_tasks : int;
  completed : entry list;
}

(* Memoized: the commit cannot change under a running process, and a
   periodic checkpointer must not fork a subprocess per snapshot. *)
let current_commit =
  let memo =
    lazy
      (match Unix.open_process_in "git rev-parse HEAD 2>/dev/null" with
      | exception _ -> "unknown"
      | ic -> (
          let line = try input_line ic with End_of_file -> "" in
          match Unix.close_process_in ic with
          | Unix.WEXITED 0 when String.length line = 40 -> line
          | _ | (exception _) -> "unknown"))
  in
  fun () -> Lazy.force memo

let entry_to_json e =
  J.Obj
    [
      ("task", J.Int e.task);
      ("result", Codec.result_to_json e.result);
      ( "stats",
        match e.stats with None -> J.Null | Some s -> Codec.stats_to_json s );
      ("edges", J.Int e.edges);
    ]

let to_json t =
  J.Obj
    [
      ("format", J.String magic);
      ("version", J.Int version);
      ("commit", J.String t.commit);
      ("params", t.params);
      ("total_tasks", J.Int t.total_tasks);
      ("completed", J.List (List.map entry_to_json t.completed));
    ]

let save ~path t = Obs.Artifact.write_string path (J.to_string (to_json t))

type load_error =
  | Unreadable of string
  | Malformed of string
  | Unknown_version of int

let pp_load_error ppf = function
  | Unreadable msg -> Format.fprintf ppf "checkpoint: cannot read file (%s)" msg
  | Malformed msg ->
      Format.fprintf ppf "checkpoint: malformed or truncated file (%s)" msg
  | Unknown_version v ->
      Format.fprintf ppf
        "checkpoint: unknown format version %d (this build reads version %d)" v
        version

let entry_of_json json =
  let* task =
    match Option.bind (J.member "task" json) J.to_int_opt with
    | Some v when v >= 0 -> Ok v
    | _ -> Error "bad or missing field \"task\""
  in
  let* result =
    match J.member "result" json with
    | Some j -> Codec.result_of_json j
    | None -> Error "bad or missing field \"result\""
  in
  let* stats =
    match J.member "stats" json with
    | None | Some J.Null -> Ok None
    | Some j ->
        let* s = Codec.stats_of_json j in
        Ok (Some s)
  in
  let* edges =
    match Option.bind (J.member "edges" json) J.to_int_opt with
    | Some v -> Ok v
    | None -> Error "bad or missing field \"edges\""
  in
  Ok { task; result; stats; edges }

let of_json json =
  let* () =
    match Option.bind (J.member "format" json) J.to_string_opt with
    | Some m when String.equal m magic -> Ok ()
    | _ -> Error (Malformed "missing ipi-checkpoint format marker")
  in
  let* v =
    match Option.bind (J.member "version" json) J.to_int_opt with
    | Some v -> Ok v
    | None -> Error (Malformed "bad or missing field \"version\"")
  in
  let* () = if v = version then Ok () else Error (Unknown_version v) in
  let str e = Result.map_error (fun m -> Malformed m) e in
  let* commit =
    str
      (match Option.bind (J.member "commit" json) J.to_string_opt with
      | Some c -> Ok c
      | None -> Error "bad or missing field \"commit\"")
  in
  let* params =
    match J.member "params" json with
    | Some p -> Ok p
    | None -> Error (Malformed "bad or missing field \"params\"")
  in
  let* total_tasks =
    str
      (match Option.bind (J.member "total_tasks" json) J.to_int_opt with
      | Some v when v >= 0 -> Ok v
      | _ -> Error "bad or missing field \"total_tasks\"")
  in
  let* completed =
    str
      (match Option.bind (J.member "completed" json) J.to_list_opt with
      | None -> Error "bad or missing field \"completed\""
      | Some items ->
          let rec go acc = function
            | [] -> Ok (List.rev acc)
            | x :: rest ->
                let* e = entry_of_json x in
                go (e :: acc) rest
          in
          go [] items)
  in
  (* Ascending, duplicate-free, in-range task indices: anything else means
     the file was hand-edited or the writer was broken — refuse it rather
     than merge garbage deterministically. *)
  let* () =
    let rec check prev = function
      | [] -> Ok ()
      | e :: rest ->
          if e.task <= prev then Error (Malformed "completed tasks not ascending")
          else if e.task >= total_tasks then
            Error (Malformed "completed task index out of range")
          else check e.task rest
    in
    check (-1) completed
  in
  Ok { commit; params; total_tasks; completed }

let load ~path =
  match In_channel.with_open_bin path In_channel.input_all with
  | exception Sys_error msg -> Error (Unreadable msg)
  | contents -> (
      match J.of_string contents with
      | Error msg -> Error (Malformed msg)
      | Ok json -> of_json json)

let compatible t ~params =
  let mine = J.to_string params and theirs = J.to_string t.params in
  if String.equal mine theirs then Ok ()
  else
    Error
      (Printf.sprintf
         "checkpoint: parameter mismatch — the snapshot describes %s but this \
          sweep is %s"
         theirs mine)
