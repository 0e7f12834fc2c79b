(* The observability layer: event streams out of the engine, JSONL/Chrome
   export, metrics counting, and the replay path behind `ipi trace`. *)

open Kernel
open Helpers

let plan ?(crashes = []) ?(lost = []) ?(delayed = []) () =
  {
    Sim.Schedule.crashes = List.map Pid.of_int crashes;
    lost = List.map (fun (a, b) -> (Pid.of_int a, Pid.of_int b)) lost;
    delayed =
      List.map
        (fun (a, b, r) -> (Pid.of_int a, Pid.of_int b, Round.of_int r))
        delayed;
  }

let es ~gst plans =
  Sim.Schedule.make ~model:Sim.Model.Es ~gst:(Round.of_int gst) plans

(* ------------------------------------------------------------------ *)
(* Sink basics                                                         *)

let test_sink_noop () =
  check_bool "noop disabled" false (Obs.Sink.enabled Obs.Sink.noop);
  check_bool "tee of noops is disabled" false
    (Obs.Sink.enabled (Obs.Sink.tee Obs.Sink.noop Obs.Sink.noop));
  let sink, drain = Obs.Sink.memory () in
  check_bool "memory enabled" true (Obs.Sink.enabled sink);
  check_bool "tee with noop keeps side" true
    (Obs.Sink.enabled (Obs.Sink.tee Obs.Sink.noop sink));
  Obs.Sink.emit sink (Obs.Event.Round_start { round = Round.first });
  check_int "one event" 1 (List.length (drain ()))

let test_run_without_sink_unchanged () =
  (* The default path must behave exactly as before the obs layer existed:
     same trace, no sink required anywhere. *)
  let cfg = config ~n:3 ~t:1 in
  let plain = run at2 cfg quiet_es in
  let traced, events = traced_run at2 cfg quiet_es in
  check_int "same rounds" plain.Sim.Trace.rounds_executed
    traced.Sim.Trace.rounds_executed;
  check_bool "same decisions" true
    (Sim.Trace.decided_values plain = Sim.Trace.decided_values traced);
  check_bool "events nonempty when traced" true (events <> [])

(* ------------------------------------------------------------------ *)
(* Event stream shape                                                  *)

let chain_events cfg =
  let schedule = Workload.Cascade.chain cfg in
  traced_run at2 cfg schedule

let test_event_stream_shape () =
  let cfg = config ~n:5 ~t:2 in
  let trace, events = chain_events cfg in
  (match events with
  | Obs.Event.Run_start { algorithm; n; t; proposals; omitters } :: _ ->
      check_bool "algorithm named" true (algorithm <> "");
      check_int "n" 5 n;
      check_int "t" 2 t;
      check_int "all proposals" 5 (List.length proposals);
      check_bool "no omitters declared" true (omitters = [])
  | _ -> Alcotest.fail "first event must be Run_start");
  (match List.rev events with
  | Obs.Event.Run_end { rounds; decided; all_halted } :: _ ->
      check_int "rounds" trace.Sim.Trace.rounds_executed rounds;
      check_int "decided" (List.length trace.Sim.Trace.decisions) decided;
      check_bool "halted" trace.Sim.Trace.all_halted all_halted
  | _ -> Alcotest.fail "last event must be Run_end");
  let round_starts =
    List.length
      (List.filter
         (function Obs.Event.Round_start _ -> true | _ -> false)
         events)
  in
  check_int "one Round_start per executed round"
    trace.Sim.Trace.rounds_executed round_starts;
  let decide_events =
    List.filter_map
      (function
        | Obs.Event.Decide { pid; round; value } -> Some (pid, round, value)
        | _ -> None)
      events
  in
  check_bool "Decide events mirror trace decisions" true
    (decide_events
    = List.map
        (fun (d : Sim.Trace.decision) -> (d.pid, d.round, d.value))
        trace.Sim.Trace.decisions)

(* ------------------------------------------------------------------ *)
(* Metrics: counters match the schedule's fates                        *)

let test_metrics_match_schedule_fates () =
  let cfg = config ~n:3 ~t:1 in
  (* Hand-built adversary: p2 crashes in round 1 losing its copies to p1 and
     p3; additionally p1's round-1 copy to p3 arrives only in round 2. *)
  let schedule =
    es ~gst:3
      [ plan ~crashes:[ 2 ] ~lost:[ (2, 1); (2, 3) ] ~delayed:[ (1, 3, 2) ] () ]
  in
  let registry = Obs.Metrics.create () in
  let trace =
    run ~sink:(Obs.Metrics.counting_sink registry) floodset cfg schedule
  in
  (* The reference interpreter's event stream, computed without the
     engine. *)
  let _, want =
    let module R = Oracle.Make (Baselines.Floodset) in
    R.run cfg ~proposals:(Sim.Runner.distinct_proposals cfg) schedule
  in
  let sum f = List.fold_left (fun acc ev -> acc + f ev) 0 want in
  let counter name =
    match Obs.Metrics.find_counter registry name with
    | Some v -> v
    | None -> Alcotest.fail ("missing counter " ^ name)
  in
  (* Drop / Delay counts are exactly the schedule's per-copy fates. *)
  check_int "drops = lost copies" 2 (counter "sim.messages_dropped");
  check_int "delays = delayed copies" 1 (counter "sim.messages_delayed");
  check_int "crashes" 1 (counter "sim.crashes");
  (* Send and delivery accounting agree with the oracle's stream. *)
  check_int "messages_sent = oracle copies"
    (sum (function Obs.Event.Send { copies; _ } -> copies | _ -> 0))
    (counter "sim.messages_sent");
  check_int "bytes_sent = oracle bytes"
    (sum (function Obs.Event.Send { bytes; _ } -> bytes | _ -> 0))
    (counter "sim.bytes_sent");
  check_int "metrics helpers agree"
    (Option.get (Stats.Summary.messages_of_metrics registry))
    (counter "sim.messages_sent");
  check_int "delivered = oracle deliveries"
    (sum (function Obs.Event.Deliver _ -> 1 | _ -> 0))
    (counter "sim.messages_delivered");
  check_int "decisions" (List.length trace.Sim.Trace.decisions)
    (counter "sim.decisions");
  match Obs.Metrics.find_gauge registry "sim.global_decision_round" with
  | Some r -> check_int "global decision gauge" (global_round trace) r
  | None -> Alcotest.fail "global decision gauge unset"

(* ------------------------------------------------------------------ *)
(* JSONL: determinism and round-trip                                   *)

let test_jsonl_determinism () =
  let cfg = config ~n:5 ~t:2 in
  let log () =
    let _, events = chain_events cfg in
    Obs.Jsonl.to_string events
  in
  let a = log () and b = log () in
  check_bool "byte-identical logs" true (String.equal a b);
  check_bool "log nonempty" true (String.length a > 0)

(* One generator per Event constructor, so the codec property covers the
   whole wire vocabulary — not just what a particular run happens to
   emit. *)
let event_gen =
  let open QCheck.Gen in
  let pid = map Pid.of_int (int_range 1 9) in
  let round = map Round.of_int (int_range 1 30) in
  let value = map Value.of_int (int_range 0 7) in
  let name =
    string_size
      ~gen:(oneofl [ 'a'; 'k'; 'z'; 'A'; '0'; '('; '+'; ')'; ' ' ])
      (int_range 1 10)
  in
  oneof
    [
      ( let* n = int_range 1 6 in
        let* t = int_range 0 3 in
        let* algorithm = name in
        let* values = list_size (return n) value in
        let+ omitters =
          list_size (int_range 0 3)
            (pair pid (oneofl Obs.Event.[ Send_omit; Recv_omit ]))
        in
        Obs.Event.Run_start
          {
            algorithm;
            n;
            t;
            proposals = List.mapi (fun i v -> (Pid.of_int (i + 1), v)) values;
            omitters;
          } );
      map (fun round -> Obs.Event.Round_start { round }) round;
      ( let* src = pid in
        let* round = round in
        let* copies = int_range 0 9 in
        let+ bytes = int_range 0 4096 in
        Obs.Event.Send { src; round; copies; bytes } );
      ( let* src = pid in
        let* dst = pid in
        let* sent = round in
        let+ extra = int_range 0 3 in
        Obs.Event.Deliver
          { src; dst; sent; round = Round.of_int (Round.to_int sent + extra) }
      );
      ( let* src = pid in
        let* dst = pid in
        let+ round = round in
        Obs.Event.Drop { src; dst; round } );
      ( let* src = pid in
        let* dst = pid in
        let* round = round in
        let+ extra = int_range 1 4 in
        Obs.Event.Delay
          { src; dst; round; until = Round.of_int (Round.to_int round + extra) }
      );
      ( let* pid = pid in
        let+ round = round in
        Obs.Event.Crash { pid; round } );
      ( let* pid = pid in
        let* round = round in
        let+ value = value in
        Obs.Event.Decide { pid; round; value } );
      ( let* pid = pid in
        let+ round = round in
        Obs.Event.Halt { pid; round } );
      ( let* suspected = list_size (int_range 0 4) pid in
        let* pid = pid in
        let+ round = round in
        Obs.Event.Fd_output { pid; round; suspected } );
      ( let* rounds = int_range 0 30 in
        let* decided = int_range 0 9 in
        let+ all_halted = bool in
        Obs.Event.Run_end { rounds; decided; all_halted } );
    ]

let events_arbitrary =
  QCheck.make
    ~print:
      (Format.asprintf "%a"
         (Format.pp_print_list ~pp_sep:Format.pp_print_newline Obs.Event.pp))
    QCheck.Gen.(list_size (int_range 0 20) event_gen)

let jsonl_roundtrip_prop events =
  match Obs.Jsonl.parse (Obs.Jsonl.to_string events) with
  | Error e -> QCheck.Test.fail_report e
  | Ok parsed ->
      List.length events = List.length parsed
      && List.for_all2 Obs.Event.equal events parsed

let test_jsonl_skips_comments () =
  match Obs.Jsonl.parse "# comment\n\n{\"ev\":\"round_start\",\"round\":3}\n" with
  | Ok [ Obs.Event.Round_start { round } ] ->
      check_int "round" 3 (Round.to_int round)
  | Ok _ -> Alcotest.fail "expected exactly one event"
  | Error e -> Alcotest.fail e

let test_jsonl_run_start_omitters () =
  let line omitters =
    "{\"ev\":\"run_start\",\"algorithm\":\"a\",\"n\":2,\"t\":0,\
     \"proposals\":[[1,0],[2,1]]" ^ omitters ^ "}"
  in
  (match Obs.Jsonl.parse (line "") with
  | Ok [ Obs.Event.Run_start { omitters; _ } ] ->
      check_bool "a log without the field declares no omitters" true
        (omitters = [])
  | Ok _ -> Alcotest.fail "expected exactly one event"
  | Error e -> Alcotest.fail e);
  List.iter
    (fun bad ->
      match Obs.Jsonl.parse (line (",\"omitters\":" ^ bad)) with
      | Error e ->
          check_bool (Printf.sprintf "%s: %S names the field" bad e) true
            (contains e "omitters")
      | Ok _ -> Alcotest.failf "omitters %s must not decode" bad)
    [ "[[1,\"both\"]]"; "[[0,\"send\"]]"; "[[1]]"; "[1]"; "{}" ]

let test_jsonl_reports_bad_line () =
  match Obs.Jsonl.parse "{\"ev\":\"round_start\",\"round\":1}\nnot json\n" with
  | Error e -> check_bool "names line 2" true (contains e "line 2")
  | Ok _ -> Alcotest.fail "expected a parse error"

(* ------------------------------------------------------------------ *)
(* Replay: the `ipi trace` path                                        *)

(* The diagram drawn from a run's in-memory events equals the one drawn
   after a JSONL round trip, as `ipi trace` reads it, for every
   generator in [Workload.Random_runs]. *)
let prop_replay_diagram_roundtrip =
  qtest ~count:60 "diagram"
    QCheck.(pair int (int_range 0 8))
    (fun (seed, gen) ->
      let rng = Rng.create ~seed in
      let cfg = config ~n:5 ~t:2 in
      let module R = Workload.Random_runs in
      let omissions faults = R.with_omissions rng cfg ~faults () in
      let schedule =
        match gen with
        | 0 -> R.synchronous rng cfg ()
        | 1 -> R.synchronous_with_delays rng cfg ()
        | 2 -> R.eventually_synchronous rng cfg ~gst:(1 + Rng.int rng 4) ()
        | 3 -> R.dls_basic rng cfg ~gst:(1 + Rng.int rng 4) ()
        | 4 ->
            R.synchronous_after rng cfg ~k:(Rng.int rng 3) ~f:(Rng.int rng 3) ()
        | 5 -> omissions Sim.Model.Send_omit_only
        | 6 -> omissions Sim.Model.Recv_omit_only
        | 7 -> omissions Sim.Model.Crash_only
        | _ -> omissions Sim.Model.Mixed
      in
      List.for_all
        (fun algo ->
          let _, events = traced_run algo cfg schedule in
          match Obs.Jsonl.parse (Obs.Jsonl.to_string events) with
          | Error e -> QCheck.Test.fail_report e
          | Ok parsed -> String.equal (diagram events) (diagram parsed))
        [ at2; floodset; hr ])

let test_replay_summary () =
  let cfg = config ~n:3 ~t:1 in
  let _, events = traced_run floodset cfg quiet_es in
  match Obs.Replay.of_events events with
  | Error e -> Alcotest.fail e
  | Ok replay ->
      let s = Format.asprintf "%a" Obs.Replay.pp_summary replay in
      check_bool "names algorithm" true (contains s "FloodSet");
      check_bool "counts decisions" true (contains s "3 decision(s)")

(* ------------------------------------------------------------------ *)
(* Chrome export                                                       *)

let test_chrome_export_is_valid_json () =
  let cfg = config ~n:3 ~t:1 in
  let _, events = traced_run floodset cfg quiet_es in
  match Obs.Json.of_string (Obs.Chrome.to_string events) with
  | Error e -> Alcotest.fail e
  | Ok json -> (
      match Option.bind (Obs.Json.member "traceEvents" json) Obs.Json.to_list_opt with
      | Some entries -> check_bool "has trace events" true (entries <> [])
      | None -> Alcotest.fail "missing traceEvents")

(* ------------------------------------------------------------------ *)
(* Fd_output and progress metrics                                      *)

let test_fd_history_emits_events () =
  let cfg = config ~n:3 ~t:1 in
  let schedule = es ~gst:1 [ plan ~crashes:[ 2 ] ~lost:[ (2, 1); (2, 3) ] () ] in
  let sink, drain = Obs.Sink.memory () in
  let history = Fd.Simulate.history ~sink cfg schedule ~rounds:3 in
  let events = drain () in
  check_int "one event per history entry" (List.length history)
    (List.length events);
  check_bool "all are Fd_output" true
    (List.for_all
       (function Obs.Event.Fd_output _ -> true | _ -> false)
       events)

let test_exhaustive_reports_metrics () =
  let cfg = config ~n:3 ~t:1 in
  let registry = Obs.Metrics.create () in
  let spec =
    Mc.Distrib.make ~algo:at2 cfg
      (Mc.Distrib.Fixed (Sim.Runner.distinct_proposals cfg))
  in
  let result =
    (Result.get_ok (Mc.Distrib.run ~metrics:registry spec)).Mc.Distrib.result
  in
  check_int "mc.runs" result.Mc.Exhaustive.runs
    (Option.get (Obs.Metrics.find_counter registry "mc.runs"));
  check_int "mc.violations" 0
    (Option.get (Obs.Metrics.find_counter registry "mc.violations"))

(* ------------------------------------------------------------------ *)
(* Profiling spans                                                     *)

let test_span_disabled_is_inert () =
  let t = Obs.Span.disabled in
  check_bool "disabled" false (Obs.Span.enabled t);
  Obs.Span.enter t "x";
  Obs.Span.exit t;
  check_bool "no records" true (Obs.Span.records t = []);
  check_int "with_ passes the value through" 7
    (Obs.Span.with_ t "y" (fun () -> 7))

let test_span_nesting () =
  let t = Obs.Span.recorder ~track:3 () in
  check_bool "recorder enabled" true (Obs.Span.enabled t);
  Obs.Span.enter t "outer";
  Obs.Span.enter t "inner";
  Obs.Span.exit t;
  Obs.Span.exit t;
  match Obs.Span.records t with
  | [ inner; outer ] ->
      (* Completion order: the inner span closes first. *)
      check_string "inner label" "inner" inner.Obs.Span.label;
      check_int "inner depth" 1 inner.Obs.Span.depth;
      check_string "outer label" "outer" outer.Obs.Span.label;
      check_int "outer depth" 0 outer.Obs.Span.depth;
      check_int "track" 3 inner.Obs.Span.track;
      check_bool "outer starts no later than inner" true
        (outer.Obs.Span.start_us <= inner.Obs.Span.start_us);
      check_bool "outer lasts at least as long" true
        (outer.Obs.Span.dur_us >= inner.Obs.Span.dur_us)
  | rs -> Alcotest.fail (Printf.sprintf "expected 2 records, got %d" (List.length rs))

let test_span_exception_safety () =
  let t = Obs.Span.recorder () in
  (try Obs.Span.with_ t "boom" (fun () -> failwith "boom")
   with Failure _ -> ());
  match Obs.Span.records t with
  | [ r ] -> check_string "span closed on raise" "boom" r.Obs.Span.label
  | rs -> Alcotest.fail (Printf.sprintf "expected 1 record, got %d" (List.length rs))

let test_span_exit_without_enter () =
  let t = Obs.Span.recorder () in
  match Obs.Span.exit t with
  | () -> Alcotest.fail "expected Invalid_argument"
  | exception Invalid_argument _ -> ()

let test_span_absorb_ordering () =
  let parent = Obs.Span.recorder () in
  Obs.Span.with_ parent "p1" (fun () -> ());
  let child = Obs.Span.child parent ~track:2 in
  Obs.Span.with_ child "c1" (fun () -> ());
  Obs.Span.with_ child "c2" (fun () -> ());
  Obs.Span.absorb parent child;
  Obs.Span.with_ parent "p2" (fun () -> ());
  check_bool "child drained" true (Obs.Span.records child = []);
  let field f = List.map f (Obs.Span.records parent) in
  check_bool "absorb preserves completion order" true
    (field (fun r -> r.Obs.Span.label) = [ "p1"; "c1"; "c2"; "p2" ]);
  check_bool "absorbed spans keep the child's track" true
    (field (fun r -> r.Obs.Span.track) = [ 0; 2; 2; 0 ])

let test_span_record_json () =
  let t = Obs.Span.recorder () in
  Obs.Span.with_ t "work" (fun () ->
      ignore (Sys.opaque_identity (List.init 100 float_of_int)));
  match Obs.Span.records t with
  | [ r ] ->
      let json = Obs.Span.record_to_json r in
      let str name = Option.bind (Obs.Json.member name json) Obs.Json.to_string_opt in
      let num name = Option.bind (Obs.Json.member name json) Obs.Json.to_float_opt in
      check_bool "label" true (str "label" = Some "work");
      check_bool "dur_us numeric" true (num "dur_us" <> None);
      check_bool "minor_words numeric" true (num "minor_words" <> None);
      check_bool "major_collections numeric" true (num "major_collections" <> None)
  | rs -> Alcotest.fail (Printf.sprintf "expected 1 record, got %d" (List.length rs))

(* ------------------------------------------------------------------ *)
(* Allocation probes                                                   *)

let test_prof_measure_counts_and_alloc () =
  let a = Obs.Prof.acc () in
  for _ = 1 to 3 do
    Obs.Prof.measure a (fun () ->
        ignore (Sys.opaque_identity (List.init 1000 float_of_int)))
  done;
  check_int "three intervals" 3 (Obs.Prof.intervals a);
  let metrics = Obs.Metrics.create () in
  Obs.Prof.flush a ~metrics ~prefix:"test" ~per:"step";
  match Obs.Metrics.find_histogram metrics "test.minor_words_per_step" with
  | None -> Alcotest.fail "histogram missing after flush"
  | Some s ->
      check_int "count = intervals" 3 s.Obs.Metrics.count;
      (* A boxed-float list of 1000 allocates thousands of minor words;
         sub-collection intervals must not read as zero. *)
      check_bool "allocating work reads positive minor words" true
        (s.Obs.Metrics.mean > 0.)

let test_prof_records_on_exception () =
  let a = Obs.Prof.acc () in
  (try Obs.Prof.measure a (fun () -> failwith "boom") with Failure _ -> ());
  check_int "raised interval recorded" 1 (Obs.Prof.intervals a)

let test_prof_merge_and_empty_flush () =
  let a = Obs.Prof.acc () and b = Obs.Prof.acc () in
  Obs.Prof.measure a (fun () -> ());
  Obs.Prof.measure b (fun () -> ());
  Obs.Prof.measure b (fun () -> ());
  Obs.Prof.merge ~into:a b;
  check_int "merged intervals" 3 (Obs.Prof.intervals a);
  let metrics = Obs.Metrics.create () in
  Obs.Prof.flush (Obs.Prof.acc ()) ~metrics ~prefix:"empty" ~per:"step";
  check_bool "empty acc flushes nothing" true
    (Obs.Metrics.find_histogram metrics "empty.minor_words_per_step" = None)

let test_find_histogram_matches_summary () =
  let m = Obs.Metrics.create () in
  check_bool "absent name" true (Obs.Metrics.find_histogram m "nope" = None);
  let h = Obs.Metrics.histogram m "x" in
  check_bool "created but unobserved" true
    (Obs.Metrics.find_histogram m "x" = None);
  Obs.Metrics.observe h 1.;
  Obs.Metrics.observe h 3.;
  check_bool "parity with summary" true
    (Obs.Metrics.find_histogram m "x" = Obs.Metrics.summary h)

(* ------------------------------------------------------------------ *)
(* Progress meters                                                     *)

let test_progress_disabled () =
  let p = Obs.Progress.disabled in
  check_bool "disabled" false (Obs.Progress.enabled p);
  (* All operations must be no-ops, not failures. *)
  Obs.Progress.set_total p 10;
  Obs.Progress.step p ~items:1 ~runs:1 ~hits:0 ~lookups:0;
  Obs.Progress.finish p

let test_progress_deterministic_emission () =
  let seen = ref [] in
  let p =
    Obs.Progress.create ~every:2 ~total:10 ~label:"sweep"
      ~emit:(fun s -> seen := s :: !seen)
      ()
  in
  for _ = 1 to 5 do
    Obs.Progress.step p ~items:1 ~runs:7 ~hits:3 ~lookups:4
  done;
  Obs.Progress.finish p;
  let snaps = List.rev !seen in
  (* Emission points are keyed on the item count alone, so this sequence
     is deterministic whatever the wall clock does. *)
  check_bool "emits at items 2 and 4, then the final 5" true
    (List.map (fun s -> (s.Obs.Progress.items, s.Obs.Progress.final)) snaps
    = [ (2, false); (4, false); (5, true) ]);
  let final = List.nth snaps 2 in
  check_bool "total carried" true (final.Obs.Progress.total = Some 10);
  check_int "runs accumulated" 35 final.Obs.Progress.runs;
  check_bool "hit rate = 15/20" true (final.Obs.Progress.hit_rate = Some 0.75)

let test_progress_set_total_render_json () =
  let seen = ref [] in
  let p =
    Obs.Progress.create ~label:"fuzz" ~emit:(fun s -> seen := s :: !seen) ()
  in
  Obs.Progress.set_total p 4;
  Obs.Progress.step p ~items:1 ~runs:0 ~hits:0 ~lookups:0;
  match !seen with
  | [ s ] ->
      check_bool "set_total lands in snapshots" true
        (s.Obs.Progress.total = Some 4);
      let line = Obs.Progress.render s in
      check_bool "render names the label" true (contains line "fuzz");
      check_bool "render shows items/total" true (contains line "1/4");
      let json = Obs.Progress.snapshot_to_json s in
      check_bool "json has items" true
        (Option.bind (Obs.Json.member "items" json) Obs.Json.to_int_opt = Some 1);
      check_bool "json has label" true
        (Option.bind (Obs.Json.member "label" json) Obs.Json.to_string_opt
        = Some "fuzz")
  | l -> Alcotest.fail (Printf.sprintf "expected 1 snapshot, got %d" (List.length l))

(* ------------------------------------------------------------------ *)
(* Chrome span export                                                  *)

let test_chrome_of_spans_shape () =
  let t = Obs.Span.recorder () in
  Obs.Span.with_ t "sweep" (fun () -> Obs.Span.with_ t "run" (fun () -> ()));
  let shard = Obs.Span.child t ~track:1 in
  Obs.Span.with_ shard "shard 0" (fun () -> ());
  Obs.Span.absorb t shard;
  let json = Obs.Chrome.of_spans (Obs.Span.records t) in
  match
    Option.bind (Obs.Json.member "traceEvents" json) Obs.Json.to_list_opt
  with
  | None -> Alcotest.fail "missing traceEvents"
  | Some entries ->
      let str name e = Option.bind (Obs.Json.member name e) Obs.Json.to_string_opt in
      let int name e = Option.bind (Obs.Json.member name e) Obs.Json.to_int_opt in
      let slices = List.filter (fun e -> str "ph" e = Some "X") entries in
      check_int "one X slice per record" 3 (List.length slices);
      check_bool "slices on the span pid" true
        (List.for_all (fun e -> int "pid" e = Some 1) slices);
      check_bool "zero-length slices widened to 1us" true
        (List.for_all
           (fun e -> match int "dur" e with Some d -> d >= 1 | None -> false)
           slices);
      let track_names =
        List.filter_map
          (fun e ->
            if str "ph" e = Some "M" && str "name" e = Some "thread_name" then
              Option.bind (Obs.Json.member "args" e) (fun a ->
                  Option.bind (Obs.Json.member "name" a) Obs.Json.to_string_opt)
            else None)
          entries
      in
      check_bool "main track named" true (List.mem "main" track_names);
      check_bool "shard track named" true (List.mem "shard 0" track_names)

(* ------------------------------------------------------------------ *)
(* Instrumentation must never change results                           *)

let test_instrumented_sweep_results_unchanged () =
  let cfg = config ~n:3 ~t:1 in
  let spec =
    Mc.Distrib.make ~reduce:Mc.Distrib.Rdedup ~algo:at2 cfg Mc.Distrib.Binary
  in
  let sweep ?prof ?spans ?progress executor =
    match Mc.Distrib.run ~executor ?prof ?spans ?progress spec with
    | Ok r -> (r.Mc.Distrib.result, r.Mc.Distrib.stats)
    | Error msg -> Alcotest.fail msg
  in
  let plain = sweep (Mc.Distrib.Domains 1) in
  let instruments () =
    ( Obs.Prof.acc (),
      Obs.Span.recorder (),
      Obs.Progress.create ~label:"t" ~emit:ignore () )
  in
  let prof, spans, progress = instruments () in
  let serial = sweep ~prof ~spans ~progress (Mc.Distrib.Domains 1) in
  check_bool "serial dedup: instruments leave result and stats alone" true
    (plain = serial);
  check_bool "prof saw the distinct work" true (Obs.Prof.intervals prof > 0);
  check_bool "spans recorded" true (Obs.Span.records spans <> []);
  let prof, spans, progress = instruments () in
  let par = sweep ~prof ~spans ~progress (Mc.Distrib.Domains 2) in
  check_bool "parallel dedup agrees with serial on every field" true
    (plain = par)

let test_par_report () =
  let got = ref None in
  let tasks = Array.init 7 (fun i () -> i * i) in
  let results =
    Par.map_tasks ~report:(fun s -> got := Some s) ~jobs:4 tasks
  in
  check_bool "results in task order" true
    (results = Array.init 7 (fun i -> i * i));
  match !got with
  | None -> Alcotest.fail "report callback not invoked"
  | Some stats ->
      check_int "every task accounted to some worker" 7
        (Array.fold_left
           (fun acc (s : Par.worker_stat) -> acc + s.tasks)
           0 stats)

(* ------------------------------------------------------------------ *)
(* Wire: length-prefixed JSON framing for the worker pipe protocol      *)

let with_temp_file f =
  let path = Filename.temp_file "ipi-test-obs" ".bin" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () -> f path)

let with_temp_dir f =
  let dir = Filename.temp_file "ipi-test-obs" ".dir" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  Fun.protect
    ~finally:(fun () ->
      Array.iter
        (fun name ->
          try Sys.remove (Filename.concat dir name) with Sys_error _ -> ())
        (Sys.readdir dir);
      try Unix.rmdir dir with Unix.Unix_error _ -> ())
    (fun () -> f dir)

let wire_frames =
  [
    Obs.Json.Obj [ ("task", Obs.Json.Int 3) ];
    Obs.Json.String "newlines\nare\npayload,\nnot framing";
    Obs.Json.List [ Obs.Json.Null; Obs.Json.Bool true; Obs.Json.Float 0.5 ];
  ]

let test_wire_blocking_roundtrip () =
  with_temp_file @@ fun path ->
  Out_channel.with_open_bin path (fun oc ->
      List.iter (Obs.Wire.write oc) wire_frames);
  In_channel.with_open_bin path @@ fun ic ->
  let rec drain acc =
    match Obs.Wire.read ic with
    | Ok j -> drain (j :: acc)
    | Error e -> (List.rev acc, e)
  in
  let decoded, stop = drain [] in
  check_bool "stream ends in a clean Eof at a frame boundary" true
    (stop = Obs.Wire.Eof);
  check_int "all frames decoded" (List.length wire_frames)
    (List.length decoded);
  List.iter2
    (fun a b ->
      check_string "frame round-trips" (Obs.Json.to_string a)
        (Obs.Json.to_string b))
    wire_frames decoded

let test_wire_truncated_stream () =
  with_temp_file @@ fun path ->
  (* A murdered writer: one whole frame, then a header promising more
     bytes than the stream holds. *)
  Out_channel.with_open_bin path (fun oc ->
      Obs.Wire.write oc (Obs.Json.Int 1);
      output_string oc "50\n{\"cut");
  In_channel.with_open_bin path @@ fun ic ->
  (match Obs.Wire.read ic with
  | Ok j -> check_string "frame before the cut is intact" "1" (Obs.Json.to_string j)
  | Error e -> Alcotest.fail (Format.asprintf "%a" Obs.Wire.pp_error e));
  check_bool "half-written frame reads as Truncated, never a value" true
    (Obs.Wire.read ic = Error Obs.Wire.Truncated)

let test_wire_decoder_chunked () =
  (* The supervisor's discipline: feed whatever bytes arrived — here the
     worst case, one at a time — and drain complete frames. *)
  with_temp_file @@ fun path ->
  Out_channel.with_open_bin path (fun oc ->
      List.iter (Obs.Wire.write oc) wire_frames);
  let stream = In_channel.with_open_bin path In_channel.input_all in
  let d = Obs.Wire.decoder () in
  let got = ref [] in
  String.iter
    (fun c ->
      Obs.Wire.feed d (Bytes.make 1 c) 1;
      match Obs.Wire.next d with
      | Ok (Some j) -> got := j :: !got
      | Ok None -> ()
      | Error e -> Alcotest.fail (Format.asprintf "%a" Obs.Wire.pp_error e))
    stream;
  let got = List.rev !got in
  check_int "every frame surfaced from 1-byte feeds" (List.length wire_frames)
    (List.length got);
  check_int "no bytes left buffered" 0 (Obs.Wire.pending d);
  List.iter2
    (fun a b ->
      check_string "chunked frame round-trips" (Obs.Json.to_string a)
        (Obs.Json.to_string b))
    wire_frames got

let test_wire_decoder_bad_header_sticky () =
  let d = Obs.Wire.decoder () in
  let junk = Bytes.of_string "notalength\n{}" in
  Obs.Wire.feed d junk (Bytes.length junk);
  let malformed = function
    | Error (Obs.Wire.Malformed _) -> true
    | _ -> false
  in
  check_bool "unframeable header is Malformed" true (malformed (Obs.Wire.next d));
  (* The stream can never be re-framed after a bad header: the error must
     stick rather than let the decoder resynchronise on garbage. *)
  check_bool "header error is sticky" true (malformed (Obs.Wire.next d))

let test_wire_decoder_too_large () =
  let d = Obs.Wire.decoder () in
  let header = Printf.sprintf "%d\n" (Obs.Wire.max_frame + 1) in
  Obs.Wire.feed d (Bytes.of_string header) (String.length header);
  check_bool "oversized declared length is refused before allocation" true
    (Obs.Wire.next d = Error (Obs.Wire.Too_large (Obs.Wire.max_frame + 1)))

(* ------------------------------------------------------------------ *)
(* Artifact: atomic tmp+rename writes                                   *)

let read_file path = In_channel.with_open_bin path In_channel.input_all

let test_artifact_write_and_overwrite () =
  with_temp_dir @@ fun dir ->
  let path = Filename.concat dir "out.json" in
  Obs.Artifact.write_string path "first";
  check_string "content lands at the published path" "first" (read_file path);
  Obs.Artifact.write path (fun oc -> output_string oc "second");
  check_string "overwrite replaces the whole content" "second" (read_file path);
  check_bool "no staging files left behind" true
    (Sys.readdir dir = [| "out.json" |])

let test_artifact_failed_write_leaves_target () =
  with_temp_dir @@ fun dir ->
  let path = Filename.concat dir "out.json" in
  Obs.Artifact.write_string path "intact";
  (match
     Obs.Artifact.write path (fun oc ->
         output_string oc "partial garbage";
         failwith "boom")
   with
  | exception Failure msg -> check_string "writer exception re-raised" "boom" msg
  | () -> Alcotest.fail "write should have re-raised the writer's exception");
  check_string "published path untouched by the failed write" "intact"
    (read_file path);
  check_bool "staging file removed on failure" true
    (Sys.readdir dir = [| "out.json" |])

(* ------------------------------------------------------------------ *)
(* Heartbeat: snapshot codec and the staleness probe                    *)

let snap ?(seq = 1) ?(items = 0) ?total ?(runs = 0) ?(distinct = 0)
    ?(elapsed_s = 0.) ?per_s ?eta_s ?hit_rate ?(final = false) () =
  {
    Obs.Progress.seq;
    label = "test";
    items;
    total;
    runs;
    distinct;
    elapsed_s;
    per_s;
    eta_s;
    hit_rate;
    final;
  }

let test_snapshot_json_roundtrip () =
  let cases =
    [
      snap ();
      snap ~seq:3 ~items:12 ~total:84 ~runs:900 ~elapsed_s:1.5 ~per_s:600.
        ~eta_s:0.125 ~hit_rate:0.5 ~final:true ();
    ]
  in
  List.iter
    (fun s ->
      let json = Obs.Progress.snapshot_to_json s in
      match Obs.Progress.snapshot_of_json json with
      | Error msg -> Alcotest.fail msg
      | Ok s' ->
          check_bool "snapshot decodes to the original" true (s' = s);
          (* Fixpoint on the canonical JSON: what a heartbeat file holds. *)
          check_string "canonical JSON is a fixpoint"
            (Obs.Json.to_string json)
            (Obs.Json.to_string (Obs.Progress.snapshot_to_json s')))
    cases;
  match Obs.Progress.snapshot_of_json (Obs.Json.Obj [ ("seq", Obs.Json.Int 1) ]) with
  | Ok _ -> Alcotest.fail "snapshot with missing fields must not decode"
  | Error msg -> check_bool "decode error names a field" true (msg <> "")

let test_heartbeat_check_verdicts () =
  let check_hb name expected result =
    match (expected, result) with
    | `Ok, Ok () -> ()
    | `Err needle, Error msg ->
        check_bool
          (Printf.sprintf "%s: %S mentions %S" name msg needle)
          true (contains msg needle)
    | `Ok, Error msg -> Alcotest.fail (name ^ ": unexpectedly stale: " ^ msg)
    | `Err _, Ok () -> Alcotest.fail (name ^ ": unexpectedly healthy")
  in
  let now = 1000. in
  check_hb "empty stream" (`Err "no snapshots")
    (Obs.Progress.check_heartbeat ~now ~mtime:now ~max_age_items:5 []);
  check_hb "non-monotonic seq" (`Err "non-monotonic")
    (Obs.Progress.check_heartbeat ~now ~mtime:now ~max_age_items:5
       [ snap ~seq:2 (); snap ~seq:2 () ]);
  check_hb "final snapshot is healthy however old the file" `Ok
    (Obs.Progress.check_heartbeat ~now ~mtime:0. ~max_age_items:1
       [ snap ~seq:1 (); snap ~seq:9 ~final:true () ]);
  (* 100 items/s and a 5-item budget = 0.05s; a 10s-old file is stale. *)
  let running =
    [ snap ~seq:1 ~items:50 ~per_s:100. (); snap ~seq:2 ~items:100 ~per_s:100. () ]
  in
  check_hb "old file vs observed rate" (`Err "stale")
    (Obs.Progress.check_heartbeat ~now ~mtime:(now -. 10.) ~max_age_items:5
       running);
  check_hb "freshly-written file" `Ok
    (Obs.Progress.check_heartbeat ~now ~mtime:now ~max_age_items:5 running);
  check_hb "rate from items/elapsed when per_s is missing" (`Err "stale")
    (Obs.Progress.check_heartbeat ~now ~mtime:(now -. 10.) ~max_age_items:5
       [ snap ~seq:1 ~items:100 ~elapsed_s:1. () ]);
  check_hb "too young to have a rate gets the benefit of the doubt" `Ok
    (Obs.Progress.check_heartbeat ~now ~mtime:0. ~max_age_items:1
       [ snap ~seq:1 ~items:0 () ])

let test_heartbeat_accepts_live_meter_stream () =
  let seen = ref [] in
  let p =
    Obs.Progress.create ~every:1 ~total:4 ~label:"hb"
      ~emit:(fun s -> seen := s :: !seen)
      ()
  in
  for _ = 1 to 4 do
    Obs.Progress.step p ~items:1 ~runs:2 ~hits:1 ~lookups:2
  done;
  Obs.Progress.finish p;
  let snaps = List.rev !seen in
  let rec strictly_increasing = function
    | (a : Obs.Progress.snapshot) :: (b :: _ as rest) ->
        a.seq < b.seq && strictly_increasing rest
    | _ -> true
  in
  check_bool "meter emits strictly increasing sequence numbers" true
    (strictly_increasing snaps);
  check_bool "a finished stream is healthy whatever the file age" true
    (Obs.Progress.check_heartbeat ~now:1e9 ~mtime:0. ~max_age_items:1 snaps
    = Ok ())

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "obs"
    [
      ( "sink",
        [
          Alcotest.test_case "noop" `Quick test_sink_noop;
          Alcotest.test_case "default path unchanged" `Quick
            test_run_without_sink_unchanged;
        ] );
      ( "events",
        [
          Alcotest.test_case "stream shape" `Quick test_event_stream_shape;
          Alcotest.test_case "fd history" `Quick test_fd_history_emits_events;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "schedule fates" `Quick
            test_metrics_match_schedule_fates;
          Alcotest.test_case "mc progress" `Quick
            test_exhaustive_reports_metrics;
        ] );
      ( "jsonl",
        [
          Alcotest.test_case "determinism" `Quick test_jsonl_determinism;
          qtest "round-trip all constructors" events_arbitrary
            jsonl_roundtrip_prop;
          Alcotest.test_case "comments" `Quick test_jsonl_skips_comments;
          Alcotest.test_case "run_start omitters" `Quick
            test_jsonl_run_start_omitters;
          Alcotest.test_case "bad line" `Quick test_jsonl_reports_bad_line;
        ] );
      ( "replay",
        [
          prop_replay_diagram_roundtrip;
          Alcotest.test_case "summary" `Quick test_replay_summary;
        ] );
      ( "exporters",
        [
          Alcotest.test_case "chrome json" `Quick
            test_chrome_export_is_valid_json;
          Alcotest.test_case "chrome spans" `Quick test_chrome_of_spans_shape;
        ] );
      ( "span",
        [
          Alcotest.test_case "disabled" `Quick test_span_disabled_is_inert;
          Alcotest.test_case "nesting" `Quick test_span_nesting;
          Alcotest.test_case "exception safety" `Quick
            test_span_exception_safety;
          Alcotest.test_case "exit without enter" `Quick
            test_span_exit_without_enter;
          Alcotest.test_case "absorb ordering" `Quick
            test_span_absorb_ordering;
          Alcotest.test_case "record json" `Quick test_span_record_json;
        ] );
      ( "prof",
        [
          Alcotest.test_case "measure and flush" `Quick
            test_prof_measure_counts_and_alloc;
          Alcotest.test_case "exception interval" `Quick
            test_prof_records_on_exception;
          Alcotest.test_case "merge / empty flush" `Quick
            test_prof_merge_and_empty_flush;
          Alcotest.test_case "find_histogram" `Quick
            test_find_histogram_matches_summary;
        ] );
      ( "progress",
        [
          Alcotest.test_case "disabled" `Quick test_progress_disabled;
          Alcotest.test_case "deterministic emission" `Quick
            test_progress_deterministic_emission;
          Alcotest.test_case "total / render / json" `Quick
            test_progress_set_total_render_json;
        ] );
      ( "instrumented sweeps",
        [
          Alcotest.test_case "results unchanged" `Quick
            test_instrumented_sweep_results_unchanged;
          Alcotest.test_case "par report" `Quick test_par_report;
        ] );
      ( "wire",
        [
          Alcotest.test_case "blocking round-trip" `Quick
            test_wire_blocking_roundtrip;
          Alcotest.test_case "truncated stream" `Quick
            test_wire_truncated_stream;
          Alcotest.test_case "decoder 1-byte feeds" `Quick
            test_wire_decoder_chunked;
          Alcotest.test_case "bad header is sticky" `Quick
            test_wire_decoder_bad_header_sticky;
          Alcotest.test_case "oversized frame refused" `Quick
            test_wire_decoder_too_large;
        ] );
      ( "artifact",
        [
          Alcotest.test_case "write and overwrite" `Quick
            test_artifact_write_and_overwrite;
          Alcotest.test_case "failed write leaves target" `Quick
            test_artifact_failed_write_leaves_target;
        ] );
      ( "heartbeat",
        [
          Alcotest.test_case "snapshot json round-trip" `Quick
            test_snapshot_json_roundtrip;
          Alcotest.test_case "staleness verdicts" `Quick
            test_heartbeat_check_verdicts;
          Alcotest.test_case "live meter stream" `Quick
            test_heartbeat_accepts_live_meter_stream;
        ] );
    ]
