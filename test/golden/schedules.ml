(* Prints the codec of every named schedule — the Workload.Cascade
   builders, the witness and the solo split — at the sizes and parameters
   the experiments and `ipi run -s` use, so that any change to the plans a
   builder lays out, or to their entry order, shows as a golden diff. *)

open Kernel

let print label config schedule =
  Format.printf "== %s at %a ==@.%s" label Config.pp config
    (Sim.Codec.encode schedule)

let () =
  let config (n, t) = Config.make ~n ~t in
  (* The four synchronous cascades. *)
  List.iter
    (fun nt ->
      let c = config nt in
      List.iter
        (fun (label, s) -> print label c s)
        [
          ("chain", Workload.Cascade.chain c);
          ( "silent-prefix",
            Workload.Cascade.silent_crashes c
              ~rounds:(List.map Round.of_int (Listx.range 1 (Config.t c))) );
          ( "coordinator-killer/2",
            Workload.Cascade.coordinator_killer c ~phase_rounds:2 );
          ( "coordinator-killer/4",
            Workload.Cascade.coordinator_killer c ~phase_rounds:4 );
        ])
    [ (3, 1); (4, 1); (5, 2); (7, 3); (9, 4) ];
  (* E6 and E7 at (7,2). *)
  let c72 = config (7, 2) in
  List.iter
    (fun f ->
      print
        (Printf.sprintf "leader-killer f=%d" f)
        c72
        (Workload.Cascade.leader_killer c72 ~f ~stride:1 ~start:Round.first);
      print
        (Printf.sprintf "silent-crashes rounds=1..%d" f)
        c72
        (Workload.Cascade.silent_crashes c72
           ~rounds:(List.map Round.of_int (Listx.range 1 f)));
      print
        (Printf.sprintf "minority-keeper f=%d" f)
        c72
        (Workload.Cascade.minority_keeper c72 ~f))
    [ 1; 2 ];
  List.iter
    (fun k ->
      List.iter
        (fun f ->
          print
            (Printf.sprintf "split-brain k=%d f=%d" k f)
            c72
            (Workload.Cascade.split_brain c72 ~k ~f);
          print
            (Printf.sprintf "split-then-minority k=%d f=%d" k f)
            c72
            (Workload.Cascade.split_then_minority c72 ~k ~f))
        [ 0; 1; 2 ])
    [ 0; 2; 4 ];
  (* E2 and `ipi run -s witness`/`-s solo`; E9 and E11 at (5,2). *)
  List.iter
    (fun nt ->
      let c = config nt in
      print "witness" c (Mc.Attack.witness_schedule c);
      print "solo" c (Mc.Attack.solo_split_schedule c))
    [ (3, 1); (4, 1); (5, 2); (7, 3); (9, 4) ];
  let c52 = config (5, 2) in
  print "solo rounds=t+2" c52 (Mc.Attack.solo_split_schedule ~rounds:4 c52)
