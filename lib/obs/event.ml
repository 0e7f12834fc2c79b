open Kernel

type omission = Send_omit | Recv_omit

let omission_to_string = function Send_omit -> "send" | Recv_omit -> "recv"

let omission_of_string = function
  | "send" -> Some Send_omit
  | "recv" -> Some Recv_omit
  | _ -> None

type t =
  | Run_start of {
      algorithm : string;
      n : int;
      t : int;
      proposals : (Pid.t * Value.t) list;
      omitters : (Pid.t * omission) list;
    }
  | Round_start of { round : Round.t }
  | Send of { src : Pid.t; round : Round.t; copies : int; bytes : int }
  | Deliver of { src : Pid.t; dst : Pid.t; sent : Round.t; round : Round.t }
  | Drop of { src : Pid.t; dst : Pid.t; round : Round.t }
  | Delay of { src : Pid.t; dst : Pid.t; round : Round.t; until : Round.t }
  | Crash of { pid : Pid.t; round : Round.t }
  | Decide of { pid : Pid.t; round : Round.t; value : Value.t }
  | Halt of { pid : Pid.t; round : Round.t }
  | Fd_output of { pid : Pid.t; round : Round.t; suspected : Pid.t list }
  | Run_end of { rounds : int; decided : int; all_halted : bool }

(* Every payload bottoms out in ints, strings and lists thereof, so
   structural equality is exact. *)
let equal (a : t) (b : t) = a = b

let label = function
  | Run_start _ -> "run_start"
  | Round_start _ -> "round_start"
  | Send _ -> "send"
  | Deliver _ -> "deliver"
  | Drop _ -> "drop"
  | Delay _ -> "delay"
  | Crash _ -> "crash"
  | Decide _ -> "decide"
  | Halt _ -> "halt"
  | Fd_output _ -> "fd_output"
  | Run_end _ -> "run_end"

let pp ppf ev =
  match ev with
  | Run_start { algorithm; n; t; _ } ->
      Format.fprintf ppf "run_start %s n=%d t=%d" algorithm n t
  | Round_start { round } -> Format.fprintf ppf "round_start r%d" (Round.to_int round)
  | Send { src; round; copies; bytes } ->
      Format.fprintf ppf "send %a r%d copies=%d bytes=%d" Pid.pp src
        (Round.to_int round) copies bytes
  | Deliver { src; dst; sent; round } ->
      Format.fprintf ppf "deliver %a->%a sent=r%d r%d" Pid.pp src Pid.pp dst
        (Round.to_int sent) (Round.to_int round)
  | Drop { src; dst; round } ->
      Format.fprintf ppf "drop %a->%a r%d" Pid.pp src Pid.pp dst
        (Round.to_int round)
  | Delay { src; dst; round; until } ->
      Format.fprintf ppf "delay %a->%a r%d until=r%d" Pid.pp src Pid.pp dst
        (Round.to_int round) (Round.to_int until)
  | Crash { pid; round } ->
      Format.fprintf ppf "crash %a r%d" Pid.pp pid (Round.to_int round)
  | Decide { pid; round; value } ->
      Format.fprintf ppf "decide %a=%a r%d" Pid.pp pid Value.pp value
        (Round.to_int round)
  | Halt { pid; round } ->
      Format.fprintf ppf "halt %a r%d" Pid.pp pid (Round.to_int round)
  | Fd_output { pid; round; suspected } ->
      Format.fprintf ppf "fd_output %a r%d suspects={%a}" Pid.pp pid
        (Round.to_int round)
        (Format.pp_print_list
           ~pp_sep:(fun ppf () -> Format.fprintf ppf ",")
           Pid.pp)
        suspected
  | Run_end { rounds; decided; all_halted } ->
      Format.fprintf ppf "run_end rounds=%d decided=%d all_halted=%b" rounds
        decided all_halted

(* ------------------------------------------------------------------ *)
(* JSON codec                                                          *)

let pid_json p = Json.Int (Pid.to_int p)
let round_json r = Json.Int (Round.to_int r)

let to_json ev =
  let tag = ("ev", Json.String (label ev)) in
  match ev with
  | Run_start { algorithm; n; t; proposals; omitters } ->
      let pairs f l =
        Json.List (List.map (fun (p, x) -> Json.List [ pid_json p; f x ]) l)
      in
      Json.Obj
        ([
           tag;
           ("algorithm", Json.String algorithm);
           ("n", Json.Int n);
           ("t", Json.Int t);
           ("proposals", pairs (fun v -> Json.Int (Value.to_int v)) proposals);
         ]
        (* only when declared, so crash-only logs keep their bytes *)
        @
        if omitters = [] then []
        else
          [
            ( "omitters",
              pairs (fun c -> Json.String (omission_to_string c)) omitters );
          ])
  | Round_start { round } -> Json.Obj [ tag; ("round", round_json round) ]
  | Send { src; round; copies; bytes } ->
      Json.Obj
        [
          tag;
          ("src", pid_json src);
          ("round", round_json round);
          ("copies", Json.Int copies);
          ("bytes", Json.Int bytes);
        ]
  | Deliver { src; dst; sent; round } ->
      Json.Obj
        [
          tag;
          ("src", pid_json src);
          ("dst", pid_json dst);
          ("sent", round_json sent);
          ("round", round_json round);
        ]
  | Drop { src; dst; round } ->
      Json.Obj
        [
          tag;
          ("src", pid_json src);
          ("dst", pid_json dst);
          ("round", round_json round);
        ]
  | Delay { src; dst; round; until } ->
      Json.Obj
        [
          tag;
          ("src", pid_json src);
          ("dst", pid_json dst);
          ("round", round_json round);
          ("until", round_json until);
        ]
  | Crash { pid; round } ->
      Json.Obj [ tag; ("pid", pid_json pid); ("round", round_json round) ]
  | Decide { pid; round; value } ->
      Json.Obj
        [
          tag;
          ("pid", pid_json pid);
          ("round", round_json round);
          ("value", Json.Int (Value.to_int value));
        ]
  | Halt { pid; round } ->
      Json.Obj [ tag; ("pid", pid_json pid); ("round", round_json round) ]
  | Fd_output { pid; round; suspected } ->
      Json.Obj
        [
          tag;
          ("pid", pid_json pid);
          ("round", round_json round);
          ("suspected", Json.List (List.map pid_json suspected));
        ]
  | Run_end { rounds; decided; all_halted } ->
      Json.Obj
        [
          tag;
          ("rounds", Json.Int rounds);
          ("decided", Json.Int decided);
          ("all_halted", Json.Bool all_halted);
        ]

let ( let* ) = Result.bind

let field name conv json =
  match Option.bind (Json.member name json) conv with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "missing or ill-typed field %S" name)

let int_field name = field name Json.to_int_opt
let bool_field name = field name Json.to_bool_opt
let string_field name = field name Json.to_string_opt

let pid_field name json =
  let* i = int_field name json in
  if i >= 1 then Ok (Pid.of_int i)
  else Error (Printf.sprintf "field %S: pid must be >= 1" name)

let round_field name json =
  let* i = int_field name json in
  if i >= 1 then Ok (Round.of_int i)
  else Error (Printf.sprintf "field %S: round must be >= 1" name)

let of_json json =
  let* tag = string_field "ev" json in
  match tag with
  | "run_start" ->
      let* algorithm = string_field "algorithm" json in
      let* n = int_field "n" json in
      let* t = int_field "t" json in
      let* raw = field "proposals" Json.to_list_opt json in
      let* proposals =
        List.fold_left
          (fun acc item ->
            let* acc = acc in
            match item with
            | Json.List [ p; v ] -> (
                match (Json.to_int_opt p, Json.to_int_opt v) with
                | Some p, Some v when p >= 1 ->
                    Ok ((Pid.of_int p, Value.of_int v) :: acc)
                | _ -> Error "proposals: expected [pid, value] int pairs")
            | _ -> Error "proposals: expected [pid, value] pairs")
          (Ok []) raw
      in
      let* omitters =
        let bad =
          Error "omitters: expected [pid, \"send\"|\"recv\"] pairs"
        in
        match Json.member "omitters" json with
        | None -> Ok []
        | Some (Json.List items) ->
            List.fold_right
              (fun item acc ->
                let* acc = acc in
                match item with
                | Json.List [ Json.Int p; Json.String c ] when p >= 1 -> (
                    match omission_of_string c with
                    | Some c -> Ok ((Pid.of_int p, c) :: acc)
                    | None -> bad)
                | _ -> bad)
              items (Ok [])
        | Some _ -> bad
      in
      Ok
        (Run_start
           { algorithm; n; t; proposals = List.rev proposals; omitters })
  | "round_start" ->
      let* round = round_field "round" json in
      Ok (Round_start { round })
  | "send" ->
      let* src = pid_field "src" json in
      let* round = round_field "round" json in
      let* copies = int_field "copies" json in
      let* bytes = int_field "bytes" json in
      Ok (Send { src; round; copies; bytes })
  | "deliver" ->
      let* src = pid_field "src" json in
      let* dst = pid_field "dst" json in
      let* sent = round_field "sent" json in
      let* round = round_field "round" json in
      Ok (Deliver { src; dst; sent; round })
  | "drop" ->
      let* src = pid_field "src" json in
      let* dst = pid_field "dst" json in
      let* round = round_field "round" json in
      Ok (Drop { src; dst; round })
  | "delay" ->
      let* src = pid_field "src" json in
      let* dst = pid_field "dst" json in
      let* round = round_field "round" json in
      let* until = round_field "until" json in
      Ok (Delay { src; dst; round; until })
  | "crash" ->
      let* pid = pid_field "pid" json in
      let* round = round_field "round" json in
      Ok (Crash { pid; round })
  | "decide" ->
      let* pid = pid_field "pid" json in
      let* round = round_field "round" json in
      let* value = int_field "value" json in
      Ok (Decide { pid; round; value = Value.of_int value })
  | "halt" ->
      let* pid = pid_field "pid" json in
      let* round = round_field "round" json in
      Ok (Halt { pid; round })
  | "fd_output" ->
      let* pid = pid_field "pid" json in
      let* round = round_field "round" json in
      let* raw = field "suspected" Json.to_list_opt json in
      let* suspected =
        List.fold_left
          (fun acc item ->
            let* acc = acc in
            match Json.to_int_opt item with
            | Some i when i >= 1 -> Ok (Pid.of_int i :: acc)
            | _ -> Error "suspected: expected pid ints")
          (Ok []) raw
      in
      Ok (Fd_output { pid; round; suspected = List.rev suspected })
  | "run_end" ->
      let* rounds = int_field "rounds" json in
      let* decided = int_field "decided" json in
      let* all_halted = bool_field "all_halted" json in
      Ok (Run_end { rounds; decided; all_halted })
  | other -> Error (Printf.sprintf "unknown event tag %S" other)
