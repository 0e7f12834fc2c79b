open Kernel

type run = {
  algorithm : string option;
  n : int;
  t : int option;
  omitters : (Pid.t * Event.omission) list;
  rounds : int;
  events : Event.t list;
}

let of_events events =
  let algorithm, t, omitters =
    List.fold_left
      (fun acc ev ->
        match ev with
        | Event.Run_start { algorithm; t = t'; omitters; _ } ->
            (Some algorithm, Some t', omitters)
        | _ -> acc)
      (None, None, []) events
  in
  let n =
    List.fold_left
      (fun acc ev ->
        match ev with
        | Event.Run_start { n; _ } -> max acc n
        | Event.Send { src; _ } -> max acc (Pid.to_int src)
        | Event.Deliver { src; dst; _ }
        | Event.Drop { src; dst; _ }
        | Event.Delay { src; dst; _ } ->
            max acc (max (Pid.to_int src) (Pid.to_int dst))
        | Event.Crash { pid; _ }
        | Event.Decide { pid; _ }
        | Event.Halt { pid; _ }
        | Event.Fd_output { pid; _ } -> max acc (Pid.to_int pid)
        | Event.Round_start _ | Event.Run_end _ -> acc)
      0 events
  in
  let rounds =
    List.fold_left
      (fun acc ev ->
        match ev with
        | Event.Run_end { rounds; _ } -> max acc rounds
        | Event.Round_start { round } -> max acc (Round.to_int round)
        | _ -> acc)
      0 events
  in
  if n = 0 then Error "event stream mentions no process"
  else Ok { algorithm; n; t; omitters; rounds; events }

let decisions run =
  List.filter_map
    (function
      | Event.Decide { pid; round; value } -> Some (pid, round, value)
      | _ -> None)
    run.events

let pp_summary ppf run =
  let ds = decisions run in
  Format.fprintf ppf "@[<v>%s on n=%d%s: %d round(s), %d decision(s)%a@]"
    (Option.value run.algorithm ~default:"(unknown algorithm)")
    run.n
    (match run.t with Some t -> Printf.sprintf " t=%d" t | None -> "")
    run.rounds (List.length ds)
    (fun ppf () ->
      if ds <> [] then
        Format.fprintf ppf "@,decisions: [%a]"
          (Format.pp_print_list
             ~pp_sep:(fun ppf () -> Format.fprintf ppf ";@ ")
             (fun ppf (p, r, v) ->
               Format.fprintf ppf "%a:%a@@r%d" Pid.pp p Value.pp v
                 (Round.to_int r)))
          ds)
    ()

(* The one space/time diagram: the grid comes from Crash/Decide/Halt
   events, the legend from the declared omitters and the Drop/Delay events,
   so it shows only the fates of messages that were actually sent. *)
let pp_diagram ppf run =
  (* Each process's first crash, halt and per-round decision, gathered in
     one pass: drawing stays linear in the stream, whose Deliver events
     grow as n^2 per round. *)
  let crash = Hashtbl.create 16
  and halt = Hashtbl.create 16
  and decided = Hashtbl.create 16 in
  let first tbl key v =
    if not (Hashtbl.mem tbl key) then Hashtbl.add tbl key v
  in
  List.iter
    (function
      | Event.Crash { pid; round } -> first crash pid (Round.to_int round)
      | Event.Halt { pid; round } -> first halt pid (Round.to_int round)
      | Event.Decide { pid; round; value } ->
          first decided (pid, Round.to_int round) value
      | _ -> ())
    run.events;
  let cell p k =
    match Hashtbl.find_opt crash p with
    | Some r when r < k -> "."
    | Some r when r = k -> "X"
    | _ -> (
        match Hashtbl.find_opt decided (p, k) with
        | Some v -> Format.asprintf "D=%a" Value.pp v
        | None -> (
            match Hashtbl.find_opt halt p with
            | Some h when h < k -> "h"
            | _ -> "*"))
  in
  let width = 5 in
  let pad s =
    let len = String.length s in
    if len >= width then s else s ^ String.make (width - len) ' '
  in
  Format.fprintf ppf "@[<v>";
  Format.fprintf ppf "     ";
  for k = 1 to run.rounds do
    Format.fprintf ppf "%s" (pad (Printf.sprintf "r%d" k))
  done;
  Format.fprintf ppf "@,";
  List.iter
    (fun p ->
      Format.fprintf ppf "%-4s " (Pid.to_string p);
      for k = 1 to run.rounds do
        Format.fprintf ppf "%s" (pad (cell p k))
      done;
      Format.fprintf ppf "@,")
    (Pid.all ~n:run.n);
  if run.omitters <> [] then
    Format.fprintf ppf "  omitters: %a@,"
      (Format.pp_print_list
         ~pp_sep:(fun ppf () -> Format.fprintf ppf ", ")
         (fun ppf (p, cls) ->
           Format.fprintf ppf "%a (%s-omission)" Pid.pp p
             (Event.omission_to_string cls)))
      run.omitters;
  List.iter
    (fun ev ->
      match ev with
      | Event.Drop { src; dst; round } ->
          Format.fprintf ppf "  r%d: %a -> %a " (Round.to_int round) Pid.pp src
            Pid.pp dst;
          if List.mem (src, Event.Send_omit) run.omitters then
            Format.fprintf ppf "omitted (send-omission by %a)@," Pid.pp src
          else if List.mem (dst, Event.Recv_omit) run.omitters then
            Format.fprintf ppf "omitted (receive-omission by %a)@," Pid.pp dst
          else Format.fprintf ppf "lost@,"
      | Event.Delay { src; dst; round; until } ->
          Format.fprintf ppf "  r%d: %a -> %a delayed until r%d@,"
            (Round.to_int round) Pid.pp src Pid.pp dst (Round.to_int until)
      | _ -> ())
    run.events;
  Format.fprintf ppf "@]"
