open Kernel

(* Round k spans [(k-1)*1000, k*1000) microseconds; instants land mid-slice
   so Perfetto draws them inside the round they belong to. *)
let slice_us = 1000
let ts_of_round r = (Round.to_int r - 1) * slice_us
let mid_of_round r = ts_of_round r + (slice_us / 2)

let base ~name ~ph ~ts ~tid extra =
  Json.Obj
    ([
       ("name", Json.String name);
       ("ph", Json.String ph);
       ("ts", Json.Int ts);
       ("pid", Json.Int 0);
       ("tid", Json.Int tid);
     ]
    @ extra)

let instant ~name ~round ~pid =
  base ~name ~ph:"i" ~ts:(mid_of_round round) ~tid:(Pid.to_int pid)
    [ ("s", Json.String "t") ]

let thread_meta pid =
  Json.Obj
    [
      ("name", Json.String "thread_name");
      ("ph", Json.String "M");
      ("pid", Json.Int 0);
      ("tid", Json.Int (Pid.to_int pid));
      ("args", Json.Obj [ ("name", Json.String (Pid.to_string pid)) ]);
    ]

let to_json events =
  (* Collect the participating pids (prefer Run_start's n for a complete,
     ordered track list even for processes that never get to send). *)
  let n =
    List.fold_left
      (fun acc ev ->
        match ev with
        | Event.Run_start { n; _ } -> max acc n
        | Event.Send { src; _ } -> max acc (Pid.to_int src)
        | Event.Deliver { src; dst; _ } ->
            max acc (max (Pid.to_int src) (Pid.to_int dst))
        | Event.Crash { pid; _ }
        | Event.Decide { pid; _ }
        | Event.Halt { pid; _ }
        | Event.Fd_output { pid; _ } -> max acc (Pid.to_int pid)
        | _ -> acc)
      0 events
  in
  let metas = List.map thread_meta (Pid.all ~n) in
  let rev_slices =
    List.fold_left
      (fun acc ev ->
        match ev with
        | Event.Send { src; round; copies; bytes } ->
            base
              ~name:(Printf.sprintf "round %d" (Round.to_int round))
              ~ph:"X" ~ts:(ts_of_round round) ~tid:(Pid.to_int src)
              [
                ("dur", Json.Int slice_us);
                ( "args",
                  Json.Obj
                    [ ("copies", Json.Int copies); ("bytes", Json.Int bytes) ]
                );
              ]
            :: acc
        | Event.Crash { pid; round } ->
            instant ~name:"crash" ~round ~pid :: acc
        | Event.Decide { pid; round; value } ->
            instant
              ~name:(Format.asprintf "decide %a" Value.pp value)
              ~round ~pid
            :: acc
        | Event.Halt { pid; round } -> instant ~name:"halt" ~round ~pid :: acc
        | Event.Drop { src; dst; round } ->
            instant
              ~name:(Format.asprintf "drop to %a" Pid.pp dst)
              ~round ~pid:src
            :: acc
        | Event.Delay { src; dst; round; until } ->
            instant
              ~name:
                (Format.asprintf "delay to %a until r%d" Pid.pp dst
                   (Round.to_int until))
              ~round ~pid:src
            :: acc
        | Event.Run_start _ | Event.Round_start _ | Event.Deliver _
        | Event.Fd_output _ | Event.Run_end _ ->
            acc)
      [] events
  in
  Json.Obj
    [
      ("traceEvents", Json.List (metas @ List.rev rev_slices));
      ("displayTimeUnit", Json.String "ms");
    ]

let to_string events = Json.to_string (to_json events)

(* Span records map onto a second "process" (pid 1) so span tracks never
   collide with per-simulated-process event tracks when both exports are
   concatenated by hand. Every span sits on the one "main" track; nesting
   is implied by ts/dur containment, which the viewers render as stacked
   slices. *)
let span_pid = 1

let of_spans records =
  let meta =
    Json.Obj
      [
        ("name", Json.String "thread_name");
        ("ph", Json.String "M");
        ("pid", Json.Int span_pid);
        ("tid", Json.Int 0);
        ("args", Json.Obj [ ("name", Json.String "main") ]);
      ]
  in
  let slices =
    List.map
      (fun (r : Span.record) ->
        Json.Obj
          [
            ("name", Json.String r.label);
            ("ph", Json.String "X");
            ("ts", Json.Int r.start_us);
            ("dur", Json.Int (max 1 r.dur_us));
            ("pid", Json.Int span_pid);
            ("tid", Json.Int 0);
            ( "args",
              Json.Obj
                [
                  ("cpu_us", Json.Int r.cpu_us);
                  ("minor_words", Json.Float r.minor_words);
                  ("major_words", Json.Float r.major_words);
                  ("promoted_words", Json.Float r.promoted_words);
                  ("minor_collections", Json.Int r.minor_collections);
                  ("major_collections", Json.Int r.major_collections);
                ] );
          ])
      records
  in
  Json.Obj
    [
      ("traceEvents", Json.List (meta :: slices));
      ("displayTimeUnit", Json.String "ms");
    ]

let spans_to_string records = Json.to_string (of_spans records)
