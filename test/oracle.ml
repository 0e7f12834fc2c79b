(* A naive reference interpreter of the round model of Section 1.2: the
   oracle the engine is tested against. It is written to be obviously
   right, not fast. Processes are a list, each with a plain list of the
   envelopes on their way to it, and every fate is read through
   [Schedule.plan_at] and [Schedule.fate], never through compiled plans.
   One round k:

   1. every running process sends one message to every process; a copy
      to itself arrives in round k, any other copy when the schedule
      says (round k, a later round, or never);
   2. the victims the plan names for round k crash: they have sent, but
      they do not receive;
   3. every running process, in ascending pid order, receives the
      envelopes due in round k, ordered by sender and, for one sender,
      oldest first; it may decide, and it may halt.

   The run stops when no process is running, or after [max_rounds]
   rounds. Besides the trace, [run] returns the event stream the engine
   must emit for the run: each fact above becomes its event at the moment
   it happens. Decision stability and callback exceptions are not checked
   here: the engine's containment has tests of its own. *)

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
        List.iter
          (fun s ->
            let m = A.on_send s.state round in
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
          (List.filter running procs);
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
              p.state <- A.on_receive p.state round inbox;
              (match (before, A.decision p.state) with
              | None, Some value ->
                  decisions :=
                    { Sim.Trace.pid = p.pid; round; value } :: !decisions;
                  emit (Obs.Event.Decide { pid = p.pid; round; value })
              | _ -> ());
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
