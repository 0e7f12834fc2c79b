open Kernel
open Helpers

let c31 = config ~n:3 ~t:1
let c52 = config ~n:5 ~t:2
let c72 = config ~n:7 ~t:2

(* ------------------------------------------------------------------ *)
(* Cascades                                                            *)

let test_chain () =
  let s = Workload.Cascade.chain c52 in
  assert_valid c52 s;
  check_bool "synchronous" true (Sim.Schedule.synchronous s);
  check_int "t crashes" 2 (Sim.Schedule.crash_count s);
  check_bool "victims are p1, p2" true
    (Pid.Set.equal (Sim.Schedule.faulty s) (Pid.Set.of_ints [ 1; 2 ]))

let test_silent_crashes () =
  let s =
    Workload.Cascade.silent_crashes c52
      ~rounds:[ Round.of_int 1; Round.of_int 3 ]
  in
  assert_valid c52 s;
  check_bool "p1 at round 1" true
    (Sim.Schedule.crash_round s (Pid.of_int 1) = Some Round.first);
  check_bool "p2 at round 3" true
    (Sim.Schedule.crash_round s (Pid.of_int 2) = Some (Round.of_int 3));
  (* silent: everything the victim sends that round is lost *)
  check_bool "lost to everyone" true
    (Sim.Schedule.fate s ~src:(Pid.of_int 1) ~dst:(Pid.of_int 4)
       ~round:Round.first
    = Sim.Schedule.Lost)

let test_coordinator_killer () =
  let s = Workload.Cascade.coordinator_killer c52 ~phase_rounds:2 in
  assert_valid c52 s;
  check_bool "p1 dies in round 1" true
    (Sim.Schedule.crash_round s (Pid.of_int 1) = Some Round.first);
  check_bool "p2 dies in round 3" true
    (Sim.Schedule.crash_round s (Pid.of_int 2) = Some (Round.of_int 3))

let test_leader_killer () =
  let s = Workload.Cascade.leader_killer c52 ~f:2 ~stride:2 ~start:(Round.of_int 3) in
  assert_valid c52 s;
  check_bool "p1 at round 3" true
    (Sim.Schedule.crash_round s (Pid.of_int 1) = Some (Round.of_int 3));
  check_bool "p2 at round 5" true
    (Sim.Schedule.crash_round s (Pid.of_int 2) = Some (Round.of_int 5));
  check_bool "f > t rejected" true
    (match Workload.Cascade.leader_killer c52 ~f:3 ~stride:1 ~start:Round.first with
    | (_ : Sim.Schedule.t) -> false
    | exception Invalid_argument _ -> true)

let test_split_brain () =
  let s = Workload.Cascade.split_brain c72 ~k:3 ~f:2 in
  assert_valid c72 s;
  check_int "gst is k+1" 4 (Round.to_int (Sim.Schedule.effective_gst s));
  check_bool "synchronous after k" true
    (Sim.Schedule.synchronous_after s (Round.of_int 3));
  check_int "f crashes" 2 (Sim.Schedule.crash_count s);
  check_int "crashes after k" 2 (Sim.Schedule.crashes_after s (Round.of_int 3))

let test_minority_keeper () =
  let s = Workload.Cascade.minority_keeper c72 ~f:2 in
  assert_valid c72 s;
  check_bool "synchronous" true (Sim.Schedule.synchronous s);
  check_int "f crashes" 2 (Sim.Schedule.crash_count s);
  (* The tightness property it exists for: A(f+2) decides exactly at f+2. *)
  let trace =
    Sim.Runner.run af2 c72
      ~proposals:(Sim.Runner.distinct_proposals c72)
      s
  in
  check_bool "no violations" true (Sim.Props.check trace = []);
  check_int "decides exactly at f+2" 4 (global_round trace);
  check_bool "f out of range rejected" true
    (match Workload.Cascade.minority_keeper c72 ~f:3 with
    | (_ : Sim.Schedule.t) -> false
    | exception Invalid_argument _ -> true)

let test_split_then_minority () =
  List.iter
    (fun (k, f) ->
      let s = Workload.Cascade.split_then_minority c72 ~k ~f in
      assert_valid c72 s;
      let trace =
        Sim.Runner.run af2 c72
          ~proposals:(Sim.Runner.distinct_proposals c72)
          s
      in
      check_bool "no violations" true (Sim.Props.check trace = []);
      check_int
        (Printf.sprintf "k=%d f=%d decides exactly at k+f+2" k f)
        (k + f + 2) (global_round trace))
    [ (0, 1); (0, 2); (2, 0); (2, 2); (4, 1) ]

let test_all_named () =
  List.iter
    (fun (name, s) ->
      (match Sim.Schedule.validate c52 s with
      | Ok () -> ()
      | Error e -> Alcotest.fail (name ^ ": " ^ e));
      check_bool (name ^ " is synchronous") true (Sim.Schedule.synchronous s))
    [
      ("chain", Workload.Cascade.chain c52);
      ( "silent-prefix",
        Workload.Cascade.silent_crashes c52
          ~rounds:(List.map Round.of_int [ 1; 2 ]) );
      ( "coordinator-killer/2",
        Workload.Cascade.coordinator_killer c52 ~phase_rounds:2 );
      ( "coordinator-killer/4",
        Workload.Cascade.coordinator_killer c52 ~phase_rounds:4 );
    ]

(* ------------------------------------------------------------------ *)
(* Partition                                                           *)

let test_partition () =
  let cfg = config ~n:4 ~t:2 in
  let s = Workload.Partition.split cfg ~until:8 in
  assert_valid cfg s;
  check_bool "not synchronous" false (Sim.Schedule.synchronous s);
  let a, b = Workload.Partition.blocks cfg in
  check_int "block sizes" 2 (List.length a);
  check_int "block sizes" 2 (List.length b);
  (* t < n/2 makes the partition illegal *)
  check_bool "rejected for t < n/2" true
    (match Workload.Partition.split c52 ~until:8 with
    | (_ : Sim.Schedule.t) -> false
    | exception Invalid_argument _ -> true)

(* ------------------------------------------------------------------ *)
(* Random generators always produce valid schedules                    *)

let valid cfg s =
  match Sim.Schedule.validate cfg s with Ok () -> true | Error _ -> false

let prop_sync_valid =
  qtest ~count:200 "random synchronous schedules validate" QCheck.int
    (fun seed ->
      let rng = Rng.create ~seed in
      let s = Workload.Random_runs.synchronous rng c52 () in
      valid c52 s && Sim.Schedule.synchronous s)

let prop_sync_delays_valid =
  qtest ~count:200 "random synchronous-with-delays schedules validate"
    QCheck.int (fun seed ->
      let rng = Rng.create ~seed in
      let s = Workload.Random_runs.synchronous_with_delays rng c52 () in
      valid c52 s && Sim.Schedule.synchronous s)

let prop_es_valid =
  qtest ~count:200 "random ES schedules validate"
    QCheck.(pair int (int_range 2 7))
    (fun (seed, gst) ->
      let rng = Rng.create ~seed in
      let s = Workload.Random_runs.eventually_synchronous rng c52 ~gst () in
      valid c52 s)

let prop_sync_after_valid =
  qtest ~count:200 "synchronous-after schedules validate"
    QCheck.(triple int (int_range 0 5) (int_range 0 2))
    (fun (seed, k, f) ->
      let rng = Rng.create ~seed in
      let s = Workload.Random_runs.synchronous_after rng c72 ~k ~f () in
      valid c72 s
      && Sim.Schedule.synchronous_after s (Round.of_int (max k 1))
      && Sim.Schedule.crash_count s = f)

(* The omission generator: schedules validate, stay synchronous, carry an
   explicit sound budget, and declare omitters of the class the fault
   menu permits (disjoint from the crash victims). *)
let prop_with_omissions_valid =
  qtest ~count:200 "random omission schedules validate"
    QCheck.(pair int (int_range 0 2))
    (fun (seed, menu) ->
      let faults =
        match menu with
        | 0 -> Sim.Model.Send_omit_only
        | 1 -> Sim.Model.Recv_omit_only
        | _ -> Sim.Model.Mixed
      in
      let rng = Rng.create ~seed in
      let s = Workload.Random_runs.with_omissions rng c52 ~faults () in
      let class_ok =
        List.for_all
          (fun (_, cls) ->
            match (faults, cls) with
            | Sim.Model.Send_omit_only, Sim.Model.Send_omit -> true
            | Sim.Model.Recv_omit_only, Sim.Model.Recv_omit -> true
            | Sim.Model.Mixed, _ -> true
            | _ -> false)
          (Sim.Schedule.omitters s)
      in
      let budget_ok =
        match Sim.Schedule.budget s with
        | None -> false
        | Some b ->
            b.Sim.Model.t_crash + b.Sim.Model.t_omit <= 2
            && Sim.Schedule.crash_count s <= b.Sim.Model.t_crash
            && Sim.Schedule.omit_count s <= b.Sim.Model.t_omit
      in
      valid c52 s && Sim.Schedule.synchronous s && class_ok && budget_ok
      && Pid.Set.is_empty
           (Pid.Set.inter (Sim.Schedule.faulty s) (Sim.Schedule.omitter_set s)))

(* The omission mutation operators compose with every other operator
   without ever leaving the model. *)
let prop_mutate_omissions_valid =
  qtest ~count:200 "mutations of omission schedules validate" QCheck.int
    (fun seed ->
      let rng = Rng.create ~seed in
      let base =
        Workload.Random_runs.with_omissions rng c52 ~faults:Sim.Model.Mixed ()
      in
      let s = ref base in
      for _ = 1 to 5 do
        s := Workload.Mutate.generator ~base:!s c52 rng
      done;
      valid c52 !s)

let prop_split_brain_valid =
  qtest ~count:100 "split-brain schedules validate"
    QCheck.(triple int (int_range 0 6) (int_range 0 2))
    (fun (_seed, k, f) ->
      let s = Workload.Cascade.split_brain c72 ~k ~f in
      valid c72 s)

let prop_witness_valid =
  qtest ~count:30 "attack witnesses validate"
    QCheck.(int_range 1 4)
    (fun t ->
      let cfg = config ~n:(2 * t + 1) ~t in
      valid cfg (Mc.Attack.witness_schedule cfg)
      && valid cfg (Mc.Attack.solo_split_schedule cfg))

(* ------------------------------------------------------------------ *)
(* Mutate.drops: the removal edits the mutator and the shrinker share    *)

let test_mutate_drops () =
  let p = Pid.of_int in
  let pair (a, b) = (p a, p b) in
  let plan crashes lost delayed =
    {
      Sim.Schedule.crashes = List.map p crashes;
      lost = List.map pair lost;
      delayed = List.map (fun (a, b, r) -> (p a, p b, Round.of_int r)) delayed;
    }
  in
  (* p1 and p2 crash; p5 send-omits and p4 receive-omits. *)
  let schedule =
    Sim.Schedule.make
      ~omitters:[ (p 5, Sim.Model.Send_omit); (p 4, Sim.Model.Recv_omit) ]
      ~model:Sim.Model.Es ~gst:(Round.of_int 3)
      [
        plan [ 1 ] [ (1, 2); (5, 3) ] [ (1, 3, 3); (2, 4, 2) ];
        plan [ 2 ] [ (2, 3); (3, 4) ] [];
      ]
  in
  let drops op = Workload.Mutate.drops op schedule in
  let shape s =
    ( Sim.Schedule.plans s,
      List.map (fun (q, _) -> Pid.to_int q) (Sim.Schedule.omitters s) )
  in
  let check what expected results =
    check_bool what true (List.map shape results = expected)
  in
  check "a dropped crash takes its same-round entries, in plan order"
    [
      ( [ plan [] [ (5, 3) ] [ (2, 4, 2) ]; plan [ 2 ] [ (2, 3); (3, 4) ] [] ],
        [ 4; 5 ] );
      ( [
          plan [ 1 ] [ (1, 2); (5, 3) ] [ (1, 3, 3); (2, 4, 2) ];
          plan [] [ (3, 4) ] [];
        ],
        [ 4; 5 ] );
    ]
    (drops Workload.Mutate.Drop_crash);
  check "a dropped omitter takes the losses it licensed, by pid"
    [
      ( [
          plan [ 1 ] [ (1, 2); (5, 3) ] [ (1, 3, 3); (2, 4, 2) ];
          plan [ 2 ] [ (2, 3) ] [];
        ],
        [ 5 ] );
      ( [
          plan [ 1 ] [ (1, 2) ] [ (1, 3, 3); (2, 4, 2) ];
          plan [ 2 ] [ (2, 3); (3, 4) ] [];
        ],
        [ 4 ] );
    ]
    (drops Workload.Mutate.Drop_omitter);
  check_bool "one loss dropped per result, in plan order" true
    (List.map
       (fun s ->
         List.concat_map
           (fun (pl : Sim.Schedule.plan) -> pl.lost)
           (Sim.Schedule.plans s))
       (drops Workload.Mutate.Drop_loss)
    = List.map
        (List.map pair)
        [
          [ (5, 3); (2, 3); (3, 4) ];
          [ (1, 2); (2, 3); (3, 4) ];
          [ (1, 2); (5, 3); (3, 4) ];
          [ (1, 2); (5, 3); (2, 3) ];
        ]);
  check "one delay dropped per result"
    [
      ( [
          plan [ 1 ] [ (1, 2); (5, 3) ] [ (2, 4, 2) ];
          plan [ 2 ] [ (2, 3); (3, 4) ] [];
        ],
        [ 4; 5 ] );
      ( [
          plan [ 1 ] [ (1, 2); (5, 3) ] [ (1, 3, 3) ];
          plan [ 2 ] [ (2, 3); (3, 4) ] [];
        ],
        [ 4; 5 ] );
    ]
    (drops Workload.Mutate.Drop_delay);
  List.iter
    (fun op ->
      match op with
      | Workload.Mutate.Drop_crash | Drop_omitter | Drop_loss | Drop_delay -> ()
      | _ ->
          check_int
            (Format.asprintf "%a removes nothing" Workload.Mutate.pp_op op)
            0
            (List.length (drops op)))
    Workload.Mutate.all_ops;
  check_bool "gst kept" true
    (List.for_all
       (fun s -> Round.to_int (Sim.Schedule.gst s) = 3)
       (drops Workload.Mutate.Drop_loss))

(* ------------------------------------------------------------------ *)
(* Search                                                              *)

let test_search_over () =
  let proposals = Sim.Runner.distinct_proposals c31 in
  let outcome =
    Workload.Search.over ~algo:floodset ~config:c31 ~proposals
      (List.to_seq [ quiet_es; Workload.Cascade.chain c31 ])
  in
  check_int "two runs" 2 outcome.Workload.Search.runs;
  check_int "worst is t+1" 2 outcome.Workload.Search.worst_round;
  check_bool "no violations" true (outcome.Workload.Search.violations = [])

let () =
  Alcotest.run "workload"
    [
      ( "cascade",
        [
          Alcotest.test_case "chain" `Quick test_chain;
          Alcotest.test_case "silent" `Quick test_silent_crashes;
          Alcotest.test_case "coordinator killer" `Quick test_coordinator_killer;
          Alcotest.test_case "leader killer" `Quick test_leader_killer;
          Alcotest.test_case "split brain" `Quick test_split_brain;
          Alcotest.test_case "minority keeper tightness" `Quick
            test_minority_keeper;
          Alcotest.test_case "split-then-minority tightness" `Quick
            test_split_then_minority;
          Alcotest.test_case "all named" `Quick test_all_named;
        ] );
      ("partition", [ Alcotest.test_case "split" `Quick test_partition ]);
      ("mutate", [ Alcotest.test_case "drops" `Quick test_mutate_drops ]);
      ( "generators",
        [
          prop_sync_valid;
          prop_sync_delays_valid;
          prop_es_valid;
          prop_sync_after_valid;
          prop_with_omissions_valid;
          prop_mutate_omissions_valid;
          prop_split_brain_valid;
          prop_witness_valid;
        ] );
      ( "search",
        [
          Alcotest.test_case "over" `Quick test_search_over;
        ] );
    ]
