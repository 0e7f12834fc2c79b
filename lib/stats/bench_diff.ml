type entry = {
  e_name : string;
  e_mean_s : float;
  e_stddev_s : float;
  e_minor_words : float option;
  e_speedup : float option;
}

type artifact = {
  a_date : string option;
  a_suites : (string * entry list) list;
}

type row = {
  suite : string;
  name : string;
  old_mean_s : float;
  new_mean_s : float;
  time_ratio : float;
  old_stddev_s : float;
  new_stddev_s : float;
  old_minor_words : float option;
  new_minor_words : float option;
  alloc_ratio : float option;
  old_speedup : float option;
  new_speedup : float option;
  time_regressed : bool;
  alloc_regressed : bool;
  speedup_lost : bool;
}

type report = {
  rows : row list;
  only_old : string list;
  only_new : string list;
  threshold : float;
  alloc_threshold : float;
}

let ( let* ) = Result.bind

let entry_of_json j =
  let field name conv =
    match Option.bind (Obs.Json.member name j) conv with
    | Some v -> Ok v
    | None -> Error (Printf.sprintf "bench row: missing or bad %S" name)
  in
  let* e_name = field "name" Obs.Json.to_string_opt in
  let* e_mean_s = field "mean_s" Obs.Json.to_float_opt in
  let* e_stddev_s = field "stddev_s" Obs.Json.to_float_opt in
  let e_minor_words =
    Option.bind (Obs.Json.member "minor_words" j) Obs.Json.to_float_opt
  in
  let e_speedup =
    Option.bind (Obs.Json.member "speedup_vs_none" j) Obs.Json.to_float_opt
  in
  Ok { e_name; e_mean_s; e_stddev_s; e_minor_words; e_speedup }

let rec map_result f = function
  | [] -> Ok []
  | x :: rest ->
      let* y = f x in
      let* ys = map_result f rest in
      Ok (y :: ys)

let artifact_of_json j =
  let a_date =
    Option.bind (Obs.Json.member "date" j) Obs.Json.to_string_opt
  in
  let* suites =
    match Obs.Json.member "suites" j with
    | Some (Obs.Json.Obj fields) -> Ok fields
    | Some _ -> Error "bench artifact: \"suites\" is not an object"
    | None -> Error "bench artifact: missing \"suites\""
  in
  let* a_suites =
    map_result
      (fun (suite, rows) ->
        match Obs.Json.to_list_opt rows with
        | None ->
            Error (Printf.sprintf "bench suite %S: rows are not a list" suite)
        | Some rows ->
            let* entries = map_result entry_of_json rows in
            Ok (suite, entries))
      suites
  in
  Ok { a_date; a_suites }

let artifact_of_string s =
  let* j = Obs.Json.of_string s in
  artifact_of_json j

let keys artifact =
  List.concat_map
    (fun (suite, entries) -> List.map (fun e -> (suite, e)) entries)
    artifact.a_suites

(* A row's name in the report: bench rows already carry their suite
   ([mc-alloc/floodset-...]), so the suite is prefixed only to names that
   lack it. *)
let qualified suite name =
  if String.starts_with ~prefix:(suite ^ "/") name then name
  else suite ^ "/" ^ name

let diff ?(threshold = 1.25) ?(alloc_threshold = 1.10) ?(noise_sigma = 2.0)
    ?(min_words = 1000.) ~old_ ~new_ () =
  let old_keys = keys old_ and new_keys = keys new_ in
  let find ks suite name =
    List.find_opt (fun (s, e) -> s = suite && e.e_name = name) ks
  in
  let rows =
    List.filter_map
      (fun (suite, n) ->
        match find old_keys suite n.e_name with
        | None -> None
        | Some (_, o) ->
            let time_ratio =
              if o.e_mean_s > 0. then n.e_mean_s /. o.e_mean_s else Float.nan
            in
            let noise =
              noise_sigma *. Float.max o.e_stddev_s n.e_stddev_s
            in
            let time_regressed =
              o.e_mean_s > 0.
              && time_ratio > threshold
              && n.e_mean_s -. o.e_mean_s > noise
            in
            let alloc_ratio, alloc_regressed =
              match (o.e_minor_words, n.e_minor_words) with
              | Some ow, Some nw when ow > 0. ->
                  let r = nw /. ow in
                  ( Some r,
                    ow >= min_words && nw >= min_words && r > alloc_threshold
                  )
              | _ -> (None, false)
            in
            (* A reduced row whose speedup over its unreduced sibling was a
               win (>= 1x) in the old artifact must still be one: ratios
               compress legitimately when the shared core speeds the
               sibling up, but a reduction inverting into a pessimisation
               is a regression no matter what the absolute times did. The
               inversion must clear [threshold], for the same reason the
               time verdict does: overhead-style rows (instrumentation,
               checkpointing) sit at ~1x by design and would flip sign on
               boundary noise. *)
            let speedup_lost =
              match (o.e_speedup, n.e_speedup) with
              | Some os, Some ns -> os >= 1.0 && ns *. threshold < 1.0
              | _ -> false
            in
            Some
              {
                suite;
                name = n.e_name;
                old_mean_s = o.e_mean_s;
                new_mean_s = n.e_mean_s;
                time_ratio;
                old_stddev_s = o.e_stddev_s;
                new_stddev_s = n.e_stddev_s;
                old_minor_words = o.e_minor_words;
                new_minor_words = n.e_minor_words;
                alloc_ratio;
                old_speedup = o.e_speedup;
                new_speedup = n.e_speedup;
                time_regressed;
                alloc_regressed;
                speedup_lost;
              })
      new_keys
  in
  let only side other =
    List.filter_map
      (fun (suite, e) ->
        match find other suite e.e_name with
        | Some _ -> None
        | None -> Some (qualified suite e.e_name))
      side
  in
  {
    rows;
    only_old = only old_keys new_keys;
    only_new = only new_keys old_keys;
    threshold;
    alloc_threshold;
  }

let regressions report =
  List.filter
    (fun r -> r.time_regressed || r.alloc_regressed || r.speedup_lost)
    report.rows

let cell_seconds s =
  if s >= 1. then Printf.sprintf "%.3fs"s
  else if s >= 1e-3 then Printf.sprintf "%.3fms" (s *. 1e3)
  else Printf.sprintf "%.1fus" (s *. 1e6)

let cell_ratio = function
  | None -> "-"
  | Some r when Float.is_nan r -> "-"
  | Some r -> Printf.sprintf "%.3fx" r

let verdict r =
  let parts =
    (if r.time_regressed then [ "TIME" ] else [])
    @ (if r.alloc_regressed then [ "ALLOC" ] else [])
    @ if r.speedup_lost then [ "SPEEDUP" ] else []
  in
  if parts = [] then "ok" else String.concat "+" parts

let cell_speedups old_ new_ =
  match (old_, new_) with
  | None, None -> "-"
  | o, n ->
      let one = function None -> "-" | Some s -> Printf.sprintf "%.2fx" s in
      one o ^ "->" ^ one n

let pp ppf report =
  let speedups =
    List.exists
      (fun r -> r.old_speedup <> None || r.new_speedup <> None)
      report.rows
  in
  let table =
    List.fold_left
      (fun t r ->
        Table.add_row t
          ([
             qualified r.suite r.name;
             cell_seconds r.old_mean_s;
             cell_seconds r.new_mean_s;
             cell_ratio (Some r.time_ratio);
             cell_ratio r.alloc_ratio;
           ]
          @ (if speedups then [ cell_speedups r.old_speedup r.new_speedup ]
             else [])
          @ [ verdict r ]))
      (Table.make
         ~headers:
           ([ "workload"; "old"; "new"; "time"; "alloc" ]
           @ (if speedups then [ "vs-none" ] else [])
           @ [ "verdict" ]))
      report.rows
  in
  let note label = function
    | [] -> ()
    | names ->
        Format.fprintf ppf "@,%s: %s" label (String.concat ", " names)
  in
  (* One box from the table's first line, so the notes start at its
     left edge rather than where its last line ends. *)
  Format.pp_open_vbox ppf 0;
  Table.render ppf table;
  note "only in old" report.only_old;
  note "only in new" report.only_new;
  (match report.rows with
  | [] -> Format.fprintf ppf "@,no row compared: the artifacts share no row"
  | rows ->
      Format.fprintf ppf
        "@,%d regression(s) at time>%.2fx alloc>%.2fx speedup-vs-none<1x \
         over %d matched row(s)"
        (List.length (regressions report))
        report.threshold report.alloc_threshold (List.length rows));
  Format.pp_close_box ppf ()

let opt_float = function
  | None -> Obs.Json.Null
  | Some v -> Obs.Json.Float v

let row_to_json r =
  Obs.Json.Obj
    [
      ("suite", Obs.Json.String r.suite);
      ("name", Obs.Json.String r.name);
      ("old_mean_s", Obs.Json.Float r.old_mean_s);
      ("new_mean_s", Obs.Json.Float r.new_mean_s);
      ("time_ratio", Obs.Json.Float r.time_ratio);
      ("old_minor_words", opt_float r.old_minor_words);
      ("new_minor_words", opt_float r.new_minor_words);
      ("alloc_ratio", opt_float r.alloc_ratio);
      ("old_speedup", opt_float r.old_speedup);
      ("new_speedup", opt_float r.new_speedup);
      ("time_regressed", Obs.Json.Bool r.time_regressed);
      ("alloc_regressed", Obs.Json.Bool r.alloc_regressed);
      ("speedup_lost", Obs.Json.Bool r.speedup_lost);
    ]

let to_json report =
  Obs.Json.Obj
    [
      ("threshold", Obs.Json.Float report.threshold);
      ("alloc_threshold", Obs.Json.Float report.alloc_threshold);
      ("rows", Obs.Json.List (List.map row_to_json report.rows));
      ( "only_old",
        Obs.Json.List
          (List.map (fun s -> Obs.Json.String s) report.only_old) );
      ( "only_new",
        Obs.Json.List
          (List.map (fun s -> Obs.Json.String s) report.only_new) );
      ("regressions", Obs.Json.Int (List.length (regressions report)));
    ]
