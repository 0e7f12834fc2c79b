(* The E1 row at (9,4), which the table leaves out for time: every registry
   entry that applies there is swept exhaustively
   ([Expt.Measure.sync_worst_case]), and each maximum must equal the
   entry's prediction. About two minutes on one core:

     dune exec test/certify/e1_9_4.exe

   Exits 1 on a mismatch or a failed measurement. *)

let () =
  match Expt.E1_price.measure [ (9, 4) ] with
  | exception Failure msg ->
      prerr_endline msg;
      exit 1
  | rows ->
      let ok (r : Expt.E1_price.row) = r.measured = r.predicted in
      List.iter
        (fun (r : Expt.E1_price.row) ->
          Printf.printf "%-14s n=%d t=%d predicted %2d measured %2d %s\n"
            r.label r.n r.t r.predicted r.measured
            (if ok r then "ok" else "MISMATCH"))
        rows;
      if not (List.for_all ok rows) then exit 1
