(* A naive reference interpreter of the round model of Section 1.2: the
   oracle the engine and the sweep driver are tested against. It is
   written to be obviously right, not fast. Processes are a list, each with
   a plain list of the envelopes on their way to it, and every fate is read
   through [Schedule.plan_at] and [Schedule.fate], never through compiled
   plans. One round k:

   1. every running process sends one message to every process, [on_send]
      being called from p_n down to p_1; a copy to itself arrives in round
      k, any other copy when the schedule says (round k, a later round, or
      never);
   2. the victims the plan names for round k crash: they have sent, but
      they do not receive;
   3. every running process, in ascending pid order, receives the
      envelopes due in round k, ordered by sender and, for one sender,
      oldest first; it may decide, and it may halt.

   The run stops when no process is running, or after [max_rounds]
   rounds. Besides the trace, [run] returns the event stream the engine
   must emit for the run: each fact above becomes its event at the moment
   it happens, and a round's [Send] events come in ascending sender order
   once every message of the round is sent.

   Containment is the engine's, as [Sim.Engine] states it: an exception
   from [on_send] or [on_receive] becomes [Sim.Engine.Step_error] naming
   the process and the round ([Stack_overflow], [Out_of_memory] and a
   [Step_error] pass through), and so does a process that changes or
   retracts its decision. The call order above makes the first raise the
   one the engine attributes: the highest raising sender, else the lowest
   raising receiver.

   [sweep] is the reference sweep: a depth-first walk over the serial
   adversary's choices that runs every leaf's schedule from round 1 on
   this interpreter and folds it into a result. With the sweep driver
   it shares the adversary's definition ([Mc.Serial]: its choices, their
   schedules and its transition) and the result algebra ([Mc.Exhaustive]:
   [add_run], [add_crashed], [merge]), and nothing that executes a
   round. *)

open Kernel

module Make (A : Sim.Algorithm.S) = struct
  type status = Running | Halted | Crashed of Round.t

  type proc = {
    pid : Pid.t;
    mutable state : A.state;
    mutable status : status;
    mutable pending : (Round.t * A.msg Sim.Envelope.t) list;
        (* (arrival round, envelope), in no particular order *)
  }

  let inbox_order (a : A.msg Sim.Envelope.t) (b : A.msg Sim.Envelope.t) =
    match Pid.compare a.src b.src with 0 -> Round.compare a.sent b.sent | c -> c

  let fail ~pid ~round reason =
    raise
      (Sim.Engine.Step_error { algorithm = A.name; pid; round; reason })

  let contained what ~pid ~round f =
    try f () with
    | (Sim.Engine.Step_error _ | Stack_overflow | Out_of_memory) as e ->
        raise e
    | exn -> fail ~pid ~round (what ^ " raised " ^ Printexc.to_string exn)

  let run ?max_rounds config ~proposals schedule =
    let n = Config.n config in
    let max_rounds =
      Option.value max_rounds
        ~default:(Sim.Engine.default_max_rounds config schedule)
    in
    let procs =
      List.map
        (fun pid ->
          let v = Pid.Map.find pid proposals in
          { pid; state = A.init config pid v; status = Running; pending = [] })
        (Pid.all ~n)
    in
    let running p = p.status = Running in
    let decisions = ref [] and events = ref [] in
    let emit ev = events := ev :: !events in
    emit
      (Obs.Event.Run_start
         {
           algorithm = A.name;
           n;
           t = Config.t config;
           proposals = Pid.Map.bindings proposals;
           omitters = Sim.Schedule.omitters schedule;
         });
    let rec loop k =
      if k > max_rounds || not (List.exists running procs) then k - 1
      else begin
        let round = Round.of_int k in
        emit (Obs.Event.Round_start { round });
        let plan = Sim.Schedule.plan_at schedule round in
        (* Folding over the senders from p_n down conses their messages
           back into ascending order. *)
        let sent =
          List.fold_left
            (fun acc s ->
              let m =
                contained "on_send" ~pid:s.pid ~round (fun () ->
                    A.on_send s.state round)
              in
              (s, m) :: acc)
            []
            (List.rev (List.filter running procs))
        in
        List.iter
          (fun (s, m) ->
            emit
              (Obs.Event.Send
                 {
                   src = s.pid;
                   round;
                   copies = n;
                   bytes = n * (Sim.Algorithm.header_bytes + A.wire_size m);
                 });
            List.iter
              (fun d ->
                let arrival =
                  if Pid.equal d.pid s.pid then Some round
                  else
                    match Sim.Schedule.fate schedule ~src:s.pid ~dst:d.pid ~round with
                    | Sim.Schedule.Same_round -> Some round
                    | Sim.Schedule.Delayed_until until ->
                        emit
                          (Obs.Event.Delay
                             { src = s.pid; dst = d.pid; round; until });
                        Some until
                    | Sim.Schedule.Lost ->
                        emit
                          (Obs.Event.Drop { src = s.pid; dst = d.pid; round });
                        None
                in
                Option.iter
                  (fun r ->
                    d.pending <- (r, Sim.Envelope.make ~src:s.pid ~sent:round m) :: d.pending)
                  arrival)
              procs)
          sent;
        List.iter
          (fun v ->
            let p = List.find (fun p -> Pid.equal p.pid v) procs in
            if running p then begin
              p.status <- Crashed round;
              emit (Obs.Event.Crash { pid = v; round })
            end)
          plan.Sim.Schedule.crashes;
        List.iter
          (fun p ->
            if running p then begin
              let due, later =
                List.partition (fun (r, _) -> Round.equal r round) p.pending
              in
              p.pending <- later;
              let inbox = List.sort inbox_order (List.map snd due) in
              List.iter
                (fun (e : A.msg Sim.Envelope.t) ->
                  emit
                    (Obs.Event.Deliver
                       { src = e.src; dst = p.pid; sent = e.sent; round }))
                inbox;
              let before = A.decision p.state in
              let state =
                contained "on_receive" ~pid:p.pid ~round (fun () ->
                    A.on_receive p.state round inbox)
              in
              (match (before, A.decision state) with
              | Some v, Some w when not (Value.equal v w) ->
                  fail ~pid:p.pid ~round
                    (Format.asprintf "changed its decision from %a to %a"
                       Value.pp v Value.pp w)
              | Some _, None -> fail ~pid:p.pid ~round "retracted its decision"
              | None, Some value ->
                  decisions :=
                    { Sim.Trace.pid = p.pid; round; value } :: !decisions;
                  emit (Obs.Event.Decide { pid = p.pid; round; value })
              | None, None | Some _, Some _ -> ());
              p.state <- state;
              if A.halted p.state then begin
                p.status <- Halted;
                emit (Obs.Event.Halt { pid = p.pid; round })
              end
            end)
          procs;
        loop (k + 1)
      end
    in
    let rounds = loop 1 in
    let all_halted = not (List.exists running procs) in
    let decisions = List.rev !decisions in
    emit
      (Obs.Event.Run_end
         { rounds; decided = List.length decisions; all_halted });
    ( {
        Sim.Trace.algorithm = A.name;
        config;
        proposals;
        schedule;
        decisions;
        crashes =
          List.filter_map
            (fun p -> match p.status with Crashed r -> Some (p.pid, r) | _ -> None)
            procs;
        rounds_executed = rounds;
        all_halted;
      },
      List.rev !events )
end

(* [Make (A).run] on a packed algorithm. *)
let run ?max_rounds (Sim.Algorithm.Packed (module A)) config ~proposals
    schedule =
  let module R = Make (A) in
  R.run ?max_rounds config ~proposals schedule

(* Every serial choice sequence of length [horizon], depth first, in the
   order the adversary offers its choices. *)
let enumerate ?(faults = Sim.Model.Crash_only) ?omit_budget ~policy config
    ~horizon ~f =
  let rec go depth adv rev_choices =
    if depth = 0 then f (List.rev rev_choices)
    else
      List.iter
        (fun c -> go (depth - 1) (Mc.Serial.advance adv c) (c :: rev_choices))
        (Mc.Serial.adversary_choices ~policy ~faults adv)
  in
  go horizon (Mc.Serial.initial ?omit_budget ~faults config) []

let count ?faults ?omit_budget ~policy config ~horizon =
  let total = ref 0 in
  enumerate ?faults ?omit_budget ~policy config ~horizon ~f:(fun _ ->
      incr total);
  !total

(* The valency of a tree from its leaves in enumeration order, each its
   path below the root and the values its run decided: every prefix of a
   path is a node, and the bivalent one is the deepest, then first met,
   node under which two different values are decided. *)
let valency_of_leaves leaves =
  let below = Hashtbl.create 256 and nodes = ref [] in
  List.iter
    (fun (path, vs) ->
      for k = 0 to List.length path do
        let node = List.filteri (fun i _ -> i < k) path in
        if not (Hashtbl.mem below node) then nodes := node :: !nodes;
        let old = Option.value (Hashtbl.find_opt below node) ~default:[] in
        Hashtbl.replace below node (List.sort_uniq Value.compare (vs @ old))
      done)
    leaves;
  let bivalent node =
    List.compare_length_with (Hashtbl.find below node) 2 >= 0
  in
  let deeper b node = if List.compare_lengths node b > 0 then node else b in
  match List.filter bivalent (List.rev !nodes) with
  | first :: rest -> Mc.Exhaustive.Bivalent (List.fold_left deeper first rest)
  | [] -> (
      match Hashtbl.find_opt below [] with
      | Some (v :: _) -> Mc.Exhaustive.Univalent v
      | _ -> Mc.Exhaustive.Undecided)

(* Every serial run whose faults fall within [horizon] rounds (default
   t + 2) under [policy] (default [Prefixes]) and the [faults] menu
   (default [Crash_only]), each run from round 1 on the interpreter. A run
   that raises [Step_error] is a crashed run, and the sweep goes on. *)
let sweep ?(faults = Sim.Model.Crash_only) ?omit_budget
    ?(policy = Mc.Serial.Prefixes) ?horizon ~algo ~config ~proposals () =
  let horizon = Option.value horizon ~default:(Config.t config + 2) in
  let budget = Mc.Serial.budget_of ?omit_budget ~faults config in
  let acc = ref Mc.Exhaustive.empty and leaves = ref [] in
  enumerate ~faults ?omit_budget ~policy config ~horizon ~f:(fun choices ->
      let schedule = Mc.Serial.to_schedule ?budget config choices in
      match run algo config ~proposals schedule with
      | trace, _ ->
          acc := Mc.Exhaustive.add_run !acc ~choices:(fun () -> choices) ~trace;
          leaves := (choices, Sim.Trace.decided_values trace) :: !leaves
      | exception Sim.Engine.Step_error error ->
          acc := Mc.Exhaustive.add_crashed !acc ~choices ~error);
  { !acc with Mc.Exhaustive.valency = valency_of_leaves (List.rev !leaves) }

(* [sweep] over every binary proposal assignment, merged in
   [Mc.Exhaustive.binary_assignments] order. *)
let sweep_binary ?faults ?omit_budget ?policy ?horizon ~algo ~config () =
  List.fold_left
    (fun acc proposals ->
      Mc.Exhaustive.merge acc
        (sweep ?faults ?omit_budget ?policy ?horizon ~algo ~config ~proposals
           ()))
    Mc.Exhaustive.empty
    (Mc.Exhaustive.binary_assignments config)
