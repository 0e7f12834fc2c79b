open Kernel
module J = Obs.Json

type chaos_mode = Kill | Stall | Slow

let chaos_mode_of_string = function
  | "kill" -> Ok Kill
  | "stall" -> Ok Stall
  | "slow" -> Ok Slow
  | s -> Error (Printf.sprintf "unknown chaos mode %S (kill|stall|slow)" s)

let pp_chaos_mode ppf m =
  Format.pp_print_string ppf
    (match m with Kill -> "kill" | Stall -> "stall" | Slow -> "slow")

type chaos = {
  mode : chaos_mode;
  seed : int;
  rate_pct : int;
  budget : int;
  resume_after : float;
}

let default_chaos mode ~seed =
  { mode; seed; rate_pct = 25; budget = 3; resume_after = 0.2 }

type metrics = {
  spawned : int;
  deaths : int;
  timeouts : int;
  retries : int;
  chaos_injected : int;
  frames : int;
}

let metrics_to_json m =
  J.Obj
    [
      ("spawned", J.Int m.spawned);
      ("deaths", J.Int m.deaths);
      ("timeouts", J.Int m.timeouts);
      ("retries", J.Int m.retries);
      ("chaos_injected", J.Int m.chaos_injected);
      ("frames", J.Int m.frames);
    ]

let pp_metrics ppf m =
  Format.fprintf ppf
    "%d spawned, %d deaths (%d timeouts), %d retries, %d chaos, %d frames"
    m.spawned m.deaths m.timeouts m.retries m.chaos_injected m.frames

type outcome = {
  completed : (int * J.t) list;
  failed : (int * string) list;
  interrupted : int list;
  metrics : metrics;
}

(* One worker slot of the pool. [child = None] means the slot is between
   incarnations, waiting out its backoff. *)
type slot = {
  id : int;
  mutable child : Proc.child option;
  mutable out : out_channel option;  (** buffered writer over [to_child] *)
  mutable dec : Obs.Wire.decoder;
  mutable assigned : (int * float) option;  (** in-flight task, deadline *)
  mutable respawn_at : float;
  mutable consecutive_deaths : int;
  mutable resume_at : float option;  (** pending SIGCONT (Slow chaos) *)
}

let max_backoff = 5.0

let run ?chaos ?(should_stop = fun () -> false) ?(on_result = fun ~task:_ _ -> ())
    ?(chunk_timeout = 60.) ?(max_retries = 3) ?(backoff = 0.1) ~workers ~spawn
    ~tasks () =
  if workers < 1 then invalid_arg "Supervise.run: workers < 1";
  if chunk_timeout <= 0. then invalid_arg "Supervise.run: chunk_timeout <= 0";
  let rng = Option.map (fun c -> Rng.create ~seed:c.seed) chaos in
  let chaos_left =
    ref (match chaos with Some c -> c.budget | None -> 0)
  in
  let spawned = ref 0
  and deaths = ref 0
  and timeouts = ref 0
  and retries = ref 0
  and chaos_injected = ref 0
  and frames = ref 0 in
  let pending = Queue.create () in
  List.iter (fun t -> Queue.add t pending) tasks;
  let attempts = Hashtbl.create 16 in
  let completed = ref [] in
  let failed = ref [] in
  let slots =
    Array.init workers (fun id ->
        {
          id;
          child = None;
          out = None;
          dec = Obs.Wire.decoder ();
          assigned = None;
          respawn_at = 0.;
          consecutive_deaths = 0;
          resume_at = None;
        })
  in
  let in_flight () =
    Array.exists (fun s -> s.assigned <> None) slots
  in
  let work_left () = not (Queue.is_empty pending) || in_flight () in
  let dispose slot =
    match slot.child with
    | None -> ()
    | Some child ->
        ignore (Proc.kill_and_reap child);
        slot.child <- None;
        slot.out <- None;
        slot.dec <- Obs.Wire.decoder ()
  in
  (* A slot's incarnation ended (exit, kill, timeout, protocol error):
     reap it, reassign its in-flight task under the retry bound, and
     schedule the respawn with exponential backoff. *)
  let handle_death slot ~now ~reason =
    dispose slot;
    incr deaths;
    slot.resume_at <- None;
    slot.consecutive_deaths <- slot.consecutive_deaths + 1;
    slot.respawn_at <-
      now
      +. Float.min max_backoff
           (backoff *. (2. ** float_of_int (slot.consecutive_deaths - 1)));
    match slot.assigned with
    | None -> ()
    | Some (task, _) ->
        slot.assigned <- None;
        let n = 1 + Option.value ~default:0 (Hashtbl.find_opt attempts task) in
        Hashtbl.replace attempts task n;
        if n > max_retries then
          failed :=
            ( task,
              Printf.sprintf "%s; %d attempts exhausted" reason n )
            :: !failed
        else begin
          incr retries;
          Queue.add task pending
        end
  in
  let inject_chaos slot ~now =
    match (chaos, rng) with
    | Some c, Some rng when !chaos_left > 0 && Rng.int rng 100 < c.rate_pct -> (
        decr chaos_left;
        incr chaos_injected;
        match slot.child with
        | None -> ()
        | Some child -> (
            match c.mode with
            | Kill -> Proc.signal child Sys.sigkill
            | Stall -> Proc.signal child Sys.sigstop
            | Slow ->
                Proc.signal child Sys.sigstop;
                slot.resume_at <- Some (now +. c.resume_after)))
    | _ -> ()
  in
  let send_frame slot json =
    match slot.out with
    | None -> ()
    | Some oc -> (
        try Obs.Wire.write oc json
        with Sys_error _ | Unix.Unix_error _ ->
          (* EPIPE with SIGPIPE ignored: the worker is already dead; the
             poll below will notice and reassign. *)
          ())
  in
  let assign slot ~now =
    match Queue.take_opt pending with
    | None -> ()
    | Some task ->
        slot.assigned <- Some (task, now +. chunk_timeout);
        send_frame slot (J.Obj [ ("task", J.Int task) ]);
        inject_chaos slot ~now
  in
  let respawn slot =
    let child = spawn () in
    incr spawned;
    slot.child <- Some child;
    slot.out <- Some (Unix.out_channel_of_descr (Proc.to_child child));
    slot.dec <- Obs.Wire.decoder ();
    slot.resume_at <- None
  in
  let complete slot task payload =
    incr frames;
    slot.assigned <- None;
    slot.consecutive_deaths <- 0;
    completed := (task, payload) :: !completed;
    on_result ~task payload
  in
  (* Drain every complete frame the decoder holds. A payload must carry
     the slot's in-flight task index; anything else is a protocol error
     and the incarnation is put down. Returns [false] on death. *)
  let rec drain slot ~now =
    match Obs.Wire.next slot.dec with
    | Ok None -> true
    | Ok (Some json) -> (
        match (slot.assigned, Option.bind (J.member "task" json) J.to_int_opt)
        with
        | Some (task, _), Some t when t = task ->
            complete slot task json;
            drain slot ~now
        | _ ->
            handle_death slot ~now ~reason:"unexpected result frame";
            false)
    | Error err ->
        handle_death slot ~now
          ~reason:(Format.asprintf "protocol error: %a" Obs.Wire.pp_error err);
        false
  in
  let buf = Bytes.create 65536 in
  let read_slot slot ~now =
    match slot.child with
    | None -> ()
    | Some child -> (
        match Unix.read (Proc.from_child child) buf 0 (Bytes.length buf) with
        | 0 ->
            (* EOF: clean shutdown only if nothing was in flight. *)
            if slot.assigned = None then begin
              dispose slot;
              slot.respawn_at <- now
            end
            else handle_death slot ~now ~reason:"worker closed its pipe"
        | n ->
            Obs.Wire.feed slot.dec buf n;
            ignore (drain slot ~now)
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
        | exception Unix.Unix_error _ ->
            handle_death slot ~now ~reason:"read error on worker pipe")
  in
  let prev_sigpipe =
    try Some (Sys.signal Sys.sigpipe Sys.Signal_ignore)
    with Invalid_argument _ | Sys_error _ -> None
  in
  Fun.protect
    ~finally:(fun () ->
      Array.iter dispose slots;
      match prev_sigpipe with
      | Some h -> ( try Sys.set_signal Sys.sigpipe h with _ -> ())
      | None -> ())
    (fun () ->
      let stopped = ref false in
      while work_left () && not !stopped do
        if should_stop () then stopped := true
        else begin
          let now = Unix.gettimeofday () in
          (* Chaos Slow: lift pending SIGSTOPs whose delay elapsed. *)
          Array.iter
            (fun slot ->
              match (slot.resume_at, slot.child) with
              | Some at, Some child when at <= now ->
                  Proc.signal child Sys.sigcont;
                  slot.resume_at <- None
              | _ -> ())
            slots;
          (* Reap exits the pipe has not surfaced yet, and chunk
             timeouts. *)
          Array.iter
            (fun slot ->
              match slot.child with
              | None -> ()
              | Some child -> (
                  match Proc.poll child with
                  | Proc.Running -> (
                      match slot.assigned with
                      | Some (_, deadline) when now > deadline ->
                          incr timeouts;
                          handle_death slot ~now ~reason:"chunk timeout"
                      | _ -> ())
                  | Proc.Exited _ | Proc.Signaled _ ->
                      (* Drain what the pipe still holds before declaring
                         death — the result frame may already be there. *)
                      read_slot slot ~now;
                      (match slot.child with
                      | Some _ ->
                          if slot.assigned = None then begin
                            dispose slot;
                            slot.respawn_at <- now
                          end
                          else handle_death slot ~now ~reason:"worker exited"
                      | None -> ())))
            slots;
          (* Respawn and hand out work. *)
          Array.iter
            (fun slot ->
              if
                slot.child = None
                && (not (Queue.is_empty pending))
                && slot.respawn_at <= now
              then respawn slot)
            slots;
          Array.iter
            (fun slot ->
              if slot.child <> None && slot.assigned = None then
                assign slot ~now)
            slots;
          (* Wait for frames (or the next deadline). *)
          let fds =
            Array.to_list slots
            |> List.filter_map (fun slot ->
                   match slot.child with
                   | Some child when slot.assigned <> None ->
                       Some (Proc.from_child child)
                   | _ -> None)
          in
          if fds = [] then
            (if work_left () then Unix.sleepf 0.01)
          else begin
            let timeout =
              Array.fold_left
                (fun acc slot ->
                  let acc =
                    match slot.assigned with
                    | Some (_, deadline) -> Float.min acc (deadline -. now)
                    | None -> acc
                  in
                  match slot.resume_at with
                  | Some at -> Float.min acc (at -. now)
                  | None -> acc)
                0.25 slots
            in
            let timeout = Float.max 0.005 timeout in
            match Unix.select fds [] [] timeout with
            | readable, _, _ ->
                let now = Unix.gettimeofday () in
                Array.iter
                  (fun slot ->
                    match slot.child with
                    | Some child
                      when List.memq (Proc.from_child child) readable ->
                        read_slot slot ~now
                    | _ -> ())
                  slots
            | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
          end
        end
      done;
      (* Graceful shutdown of idle survivors; busy ones only exist if we
         were stopped, and dispose (in [finally]) kills them. *)
      Array.iter
        (fun slot ->
          if slot.assigned = None then
            send_frame slot (J.Obj [ ("shutdown", J.Bool true) ]))
        slots;
      let in_flight_tasks =
        List.filter_map
          (fun s -> Option.map fst s.assigned)
          (Array.to_list slots)
      in
      let interrupted =
        List.sort_uniq compare
          (List.of_seq (Queue.to_seq pending) @ in_flight_tasks)
      in
      {
        completed = List.sort (fun (a, _) (b, _) -> compare a b) !completed;
        failed = List.sort (fun (a, _) (b, _) -> compare a b) !failed;
        interrupted;
        metrics =
          {
            spawned = !spawned;
            deaths = !deaths;
            timeouts = !timeouts;
            retries = !retries;
            chaos_injected = !chaos_injected;
            frames = !frames;
          };
      })

let serve ~name ~tasks answer ic oc =
  let rec go () =
    match Obs.Wire.read ic with
    | Error Obs.Wire.Eof -> ()
    | Error err ->
        failwith (Format.asprintf "%s: %a" name Obs.Wire.pp_error err)
    | Ok json -> (
        if Option.is_some (J.member "shutdown" json) then ()
        else
          match Option.bind (J.member "task" json) J.to_int_opt with
          | Some i when i >= 0 && i < tasks ->
              Obs.Wire.write oc (answer i);
              go ()
          | _ -> failwith (name ^ ": malformed task frame"))
  in
  go ()
