(* Parsers for the summaries `ipi sweep` and `ipi fuzz` print on stdout.

   The formats are [Mc.Exhaustive.pp_result] (plus the driver's
   [checkpoint (k/n shards) written to ...] line) and
   [Fuzz.Campaign.pp_report]. The tests run these parsers over recorded
   stdout, so a change to either printer fails there instead of turning
   every benchmark repetition into a failure. *)

type sweep = {
  runs : int;
  rounds : (int * int) option;  (** [None] when no run decided *)
  violations : int;
  undecided : int;
  crashed : int;
  shard_failures : int;
  expired : bool;  (** the "wall-clock budget expired" line *)
  checkpoint : (int * int) option;  (** completed and total shards *)
}

type fuzz = { runs : int; skipped : int; passed : int; findings : int }

let scan line fmt k =
  try Some (Scanf.sscanf line fmt k)
  with Scanf.Scan_failure _ | Failure _ | End_of_file -> None

(* "[4, 12]" or "[-, -]" *)
let rounds_of s =
  match (String.index_opt s '[', String.index_opt s ']') with
  | Some i, Some j when i < j -> (
      match
        String.split_on_char ',' (String.sub s (i + 1) (j - i - 1))
        |> List.map String.trim
      with
      | [ "-"; _ ] | [ _; "-" ] -> Ok None
      | [ a; b ] -> (
          match (int_of_string_opt a, int_of_string_opt b) with
          | Some a, Some b -> Ok (Some (a, b))
          | _ -> Error s)
      | _ -> Error s)
  | _ -> Error s

let ( let* ) = Result.bind

let sweep_of_string text =
  let lines = String.split_on_char '\n' text in
  let head = List.hd lines and rest = List.tl lines in
  match String.split_on_char ';' head |> List.map String.trim with
  | [ runs_part; rounds_part; violations_part; undecided_part ] ->
      let* runs =
        let reduced tl =
          tl = ""
          || Option.is_some
               (scan tl " (%d explored, rest from reduction)%!" ignore)
        in
        match scan runs_part "%d run(s)%[^\n]" (fun r tl -> (r, tl)) with
        | Some (r, tl) when reduced tl -> Ok r
        | _ -> Error ("bad run count: " ^ runs_part)
      in
      let* rounds =
        if String.starts_with ~prefix:"global decision rounds in " rounds_part
        then
          Result.map_error
            (fun s -> "bad rounds: " ^ s)
            (rounds_of rounds_part)
        else Error ("bad rounds: " ^ rounds_part)
      in
      let* violations =
        Option.to_result ~none:("bad violations: " ^ violations_part)
          (scan violations_part "%d violation(s)%!" Fun.id)
      in
      let* undecided =
        Option.to_result ~none:("bad undecided: " ^ undecided_part)
          (scan undecided_part "%d undecided%!" Fun.id)
      in
      let find fmt k = List.find_map (fun l -> scan l fmt k) rest in
      Ok
        {
          runs;
          rounds;
          violations;
          undecided;
          crashed =
            Option.value ~default:0 (find "%d crashed run(s)" Fun.id);
          shard_failures =
            List.length
              (List.filter
                 (fun l ->
                   scan l "shard %d failed" Fun.id |> Option.is_some)
                 rest);
          expired =
            List.exists
              (String.starts_with ~prefix:"wall-clock budget expired")
              rest;
          checkpoint =
            find "checkpoint (%d/%d shards) written to" (fun a b ->
                (a, b));
        }
  | _ -> Error ("not a sweep summary: " ^ head)

let fuzz_of_string text =
  let head = List.hd (String.split_on_char '\n' text) in
  Option.to_result ~none:("not a fuzz summary: " ^ head)
    (scan head "%d run(s) in %fs (%d skipped): %d passed, %d finding(s)"
       (fun runs _wall skipped passed findings ->
         { runs; skipped; passed; findings }))
