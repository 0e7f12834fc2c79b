open Kernel
module Int_map = Map.Make (Int)

type step_error = {
  algorithm : string;
  pid : Pid.t;
  round : Round.t;
  reason : string;
}

exception Step_error of step_error

let pp_step_error ppf e =
  Format.fprintf ppf "%s: %a failed in round %d: %s" e.algorithm Pid.pp e.pid
    (Round.to_int e.round) e.reason

let () =
  Printexc.register_printer (function
    | Step_error e -> Some (Format.asprintf "Engine.Step_error (%a)" pp_step_error e)
    | _ -> None)

(* Generous: room for the schedule itself, the asynchronous prefix, and a
   full rotation of coordinator phases after gst for the slowest algorithm
   (4 rounds per phase, up to n phases), plus the t+3 framing of A_{t+2}. *)
let round_bound config ~horizon ~gst =
  horizon + gst + (5 * (Config.n config + 2)) + Config.t config + 10

let default_max_rounds config schedule =
  round_bound config ~horizon:(Schedule.horizon schedule)
    ~gst:(Round.to_int (Schedule.gst schedule))

module Make (A : Algorithm.S) = struct
  let fail ~pid ~round reason =
    raise (Step_error { algorithm = A.name; pid; round; reason })

  (* The containment boundary: any exception the algorithm's step callbacks
     raise is rewrapped with process and round context so sweeps and fuzz
     campaigns can record it as a per-run outcome. Resource exhaustion and
     already-structured errors pass through untouched. *)
  let send_guarded st ~pid round =
    try A.on_send st round with
    | (Step_error _ | Stack_overflow | Out_of_memory) as e -> raise e
    | exn -> fail ~pid ~round ("on_send raised " ^ Printexc.to_string exn)

  let receive_guarded st ~pid round inbox =
    try A.on_receive st round inbox with
    | (Step_error _ | Stack_overflow | Out_of_memory) as e -> raise e
    | exn -> fail ~pid ~round ("on_receive raised " ^ Printexc.to_string exn)

  (* ---------------------------------------------------------------- *)
  (* The arena.

     Struct-of-arrays round state mutated in place: a status byte and an
     [A.state] slot per process, and one reusable envelope cell per
     sender whose mutable [sent]/[payload] fields are refreshed each round
     instead of reallocated (the {!Envelope} loan contract). With an
     algorithm whose steady state is allocation-free, a steady quiet round
     allocates nothing at all.

     Snapshots are copy-on-branch, not an undo log: a snapshot is two
     blits (n status bytes, n state words) plus four scalar stores into a
     preallocated slot, independent of how much the subtree below mutates,
     while an undo log costs a heap cell per mutation on the hot path
     (measurements in DESIGN §16). Slots live in a stack grown once to the
     DFS depth and reused for the rest of the sweep.

     Round semantics: [on_send] is called from [n] down to 1, every inbox
     is in {!Envelope.compare_src} order (by sender, then by send round),
     and the receive phase runs in ascending pid order. The spine cells are loaned to receivers within a round only;
     delayed envelopes are always fresh and never mutated, so fingerprints
     may reference them across rounds. *)

  module Arena = struct
    let st_running = '\000'
    let st_done = '\001'
    let st_crashed = '\002'

    (* A reusable branch-point slot. [sn_status]/[sn_states] are owned
       buffers (blitted both ways); the decision list and late map are
       immutable values captured by pointer. Crash rounds are {e not}
       snapshotted: the status byte is authoritative, a crash-round slot is
       written exactly when [st_running -> st_crashed] fires, and a stale
       value under a restored-to-running status is never read. *)
    type snap = {
      sn_status : Bytes.t;
      sn_states : A.state array;
      mutable sn_live : int;
      mutable sn_next : int;
      mutable sn_decisions : Trace.decision list;
      mutable sn_late : A.msg Envelope.t list Pid.Map.t Int_map.t;
    }

    type fingerprint = {
      fp_status : Bytes.t;  (* running / done / crashed per slot *)
      fp_states : A.state array;  (* non-running slots hold the filler *)
      mutable fp_late : (int * (int * A.msg Envelope.t list) list) list;
      mutable fp_decisions : Trace.decision list;
    }

    type t = {
      a_config : Config.t;
      mutable a_proposals : Value.t Pid.Map.t;
      a_n : int;
      a_status : Bytes.t;  (* process [p] at byte [p - 1] *)
      a_states : A.state array;
      a_crash_round : int array;  (* meaningful only under [st_crashed] *)
      mutable a_live : int;
      mutable a_next : int;  (* next round to execute *)
      mutable a_decisions : Trace.decision list;  (* newest first *)
      mutable a_late : A.msg Envelope.t list Pid.Map.t Int_map.t;
          (* delayed deliveries: round -> receiver -> envelopes, newest
             first *)
      (* Spine: one reusable envelope cell per process, created at first
         use and refreshed in place each fast round; [a_spine] is the
         ascending list of the running cells, relinked only when the
         running set drifts from [a_spine_status]. *)
      a_cells : A.msg Envelope.t option array;
      mutable a_spine : A.msg Envelope.t list;
      a_spine_status : Bytes.t;
      (* DFS branches revisit the same running sets and fault shapes
         constantly, so fast-round inboxes are interned by which senders
         they hold: [a_key] is a reusable n-byte inclusion mask, and after
         the first visit a round performs one hash lookup ([Hashtbl.find]
         with a constant-constructor [Not_found] on miss — no [option]
         box) and allocates nothing. Sound because the cached lists are
         alternative cons-chains over the {e same} reusable cells, which
         are only ever refreshed in place, never replaced. *)
      a_inboxes : (Bytes.t, A.msg Envelope.t list) Hashtbl.t;
      a_key : Bytes.t;
      mutable a_stack : snap array;
      mutable a_depth : int;
      mutable a_snapshots : int;
      mutable a_restores : int;
      a_filler : A.state;
      a_fp : fingerprint;  (* reusable probe buffers *)
      mutable a_sink : Obs.Sink.t option;
          (* the enabled sink [run] attaches; an observed arena takes the
             general path every round, so the fast path pays one branch
             for it *)
    }

    let init_state config proposals i =
      let p = Pid.of_int (i + 1) in
      match Pid.Map.find_opt p proposals with
      | Some v -> A.init config p v
      | None ->
          invalid_arg
            (Format.asprintf "Engine.Arena: no proposal for %a" Pid.pp p)

    let create config ~proposals =
      let n = Config.n config in
      let states = Array.init n (init_state config proposals) in
      let filler = states.(0) in
      {
        a_config = config;
        a_proposals = proposals;
        a_n = n;
        a_status = Bytes.make n st_running;
        a_states = states;
        a_crash_round = Array.make n 0;
        a_live = n;
        a_next = 1;
        a_decisions = [];
        a_late = Int_map.empty;
        a_cells = Array.make n None;
        a_spine = [];
        a_spine_status = Bytes.make n '\255' (* never a valid status *);
        a_inboxes = Hashtbl.create 16;
        a_key = Bytes.create n;
        a_stack = [||];
        a_depth = 0;
        a_snapshots = 0;
        a_restores = 0;
        a_filler = filler;
        a_fp =
          {
            fp_status = Bytes.make n st_running;
            fp_states = Array.make n filler;
            fp_late = [];
            fp_decisions = [];
          };
        a_sink = None;
      }

    (* The cells, the spine over them and the snapshot slots survive; the
       interned inboxes do not, or a long campaign would keep one per
       running set it ever met. *)
    let reset t ~proposals =
      for i = 0 to t.a_n - 1 do
        t.a_states.(i) <- init_state t.a_config proposals i
      done;
      t.a_proposals <- proposals;
      Bytes.fill t.a_status 0 t.a_n st_running;
      t.a_live <- t.a_n;
      t.a_next <- 1;
      t.a_decisions <- [];
      t.a_late <- Int_map.empty;
      Hashtbl.clear t.a_inboxes;
      t.a_depth <- 0

    let next_round t = Round.of_int t.a_next
    let all_halted t = t.a_live = 0
    let decisions t = List.rev t.a_decisions
    let snapshots t = t.a_snapshots
    let restores t = t.a_restores

    let state_of t p =
      let i = Pid.to_int p - 1 in
      if Bytes.get t.a_status i = st_crashed then None else Some t.a_states.(i)

    let crashed t =
      let acc = ref [] in
      for i = t.a_n - 1 downto 0 do
        if Bytes.get t.a_status i = st_crashed then
          acc :=
            (Pid.of_int (i + 1), Round.of_int t.a_crash_round.(i)) :: !acc
      done;
      !acc

    (* ---------------------------------------------------------------- *)
    (* Snapshots *)

    let save t =
      let n = t.a_n in
      if t.a_depth = Array.length t.a_stack then begin
        let depth = t.a_depth in
        let grown =
          Array.init
            (max 8 (2 * depth))
            (fun i ->
              if i < depth then t.a_stack.(i)
              else
                {
                  sn_status = Bytes.make n st_done;
                  sn_states = Array.make n t.a_filler;
                  sn_live = 0;
                  sn_next = 0;
                  sn_decisions = [];
                  sn_late = Int_map.empty;
                })
        in
        t.a_stack <- grown
      end;
      let s = t.a_stack.(t.a_depth) in
      Bytes.blit t.a_status 0 s.sn_status 0 n;
      Array.blit t.a_states 0 s.sn_states 0 n;
      s.sn_live <- t.a_live;
      s.sn_next <- t.a_next;
      s.sn_decisions <- t.a_decisions;
      s.sn_late <- t.a_late;
      t.a_depth <- t.a_depth + 1;
      t.a_snapshots <- t.a_snapshots + 1

    let restore t =
      if t.a_depth = 0 then invalid_arg "Engine.Arena.restore: no snapshot";
      let n = t.a_n in
      let s = t.a_stack.(t.a_depth - 1) in
      Bytes.blit s.sn_status 0 t.a_status 0 n;
      Array.blit s.sn_states 0 t.a_states 0 n;
      t.a_live <- s.sn_live;
      t.a_next <- s.sn_next;
      t.a_decisions <- s.sn_decisions;
      t.a_late <- s.sn_late;
      t.a_restores <- t.a_restores + 1

    let drop t =
      if t.a_depth = 0 then invalid_arg "Engine.Arena.drop: no snapshot";
      t.a_depth <- t.a_depth - 1

    (* ---------------------------------------------------------------- *)
    (* Fingerprints.

       Two states with equal fingerprints produce identical sweep verdicts
       for every suffix of adversary choices: the aggregates a sweep
       extracts from a finished trace ([Props.check] and
       [Trace.global_decision_round]) read only the decisions list, the
       crashed pid set, the proposals (fixed per sweep) and the all-halted
       flag, while the {e future} is a deterministic function of the
       running states, the in-flight delayed messages and the round number
       (part of the caller's key). So running states are kept structurally
       and halted and crashed slots collapse to their status byte over one
       filler state: a halted process has no future behaviour and crash
       rounds are dropped by [Trace.correct] and [Props]. Everything inside
       is plain immutable data (see {!Algorithm.S} on purity), so
       polymorphic equality and [Hashtbl.hash] are meaningful on it — the
       contract {!Mc.Dedup} relies on. Queue order inside a delivery slot
       is kept (it affects inbox order, hence the future), so two states
       differing only there conservatively miss rather than alias. *)

    let canon_late late =
      Int_map.fold
        (fun k per acc ->
          ( k,
            List.map (fun (p, q) -> (Pid.to_int p, q)) (Pid.Map.bindings per)
          )
          :: acc)
        late []

    let probe_fingerprint t =
      let fp = t.a_fp in
      Bytes.blit t.a_status 0 fp.fp_status 0 t.a_n;
      for i = 0 to t.a_n - 1 do
        fp.fp_states.(i) <-
          (if Bytes.get t.a_status i = st_running then t.a_states.(i)
           else t.a_filler)
      done;
      fp.fp_late <-
        (if Int_map.is_empty t.a_late then [] else canon_late t.a_late);
      fp.fp_decisions <- t.a_decisions;
      fp

    let copy_fingerprint fp =
      {
        fp_status = Bytes.copy fp.fp_status;
        fp_states = Array.copy fp.fp_states;
        fp_late = fp.fp_late;
        fp_decisions = fp.fp_decisions;
      }

    let fingerprint t = copy_fingerprint (probe_fingerprint t)

    (* ---------------------------------------------------------------- *)
    (* Round execution *)

    let rec apply_crashes t round sink = function
      | [] -> ()
      | victim :: rest ->
          let i = Pid.to_int victim - 1 in
          if Bytes.get t.a_status i = st_running then begin
            Bytes.set t.a_status i st_crashed;
            t.a_crash_round.(i) <- Round.to_int round;
            t.a_live <- t.a_live - 1;
            match sink with
            | Some sink ->
                Obs.Sink.emit sink (Obs.Event.Crash { pid = victim; round })
            | None -> ()
          end;
          apply_crashes t round sink rest

    (* Refresh every running sender's cell in place. Cells are created at
       first use (a process not running at one branch's first fast round
       may be running after a restore in another). *)
    let refresh_cells t round =
      for src = t.a_n downto 1 do
        if Bytes.get t.a_status (src - 1) = st_running then begin
          let srcp = Pid.of_int src in
          match t.a_cells.(src - 1) with
          | Some e ->
              e.Envelope.sent <- round;
              e.Envelope.payload <-
                send_guarded t.a_states.(src - 1) ~pid:srcp round
          | None ->
              t.a_cells.(src - 1) <-
                Some
                  (Envelope.make ~src:srcp ~sent:round
                     (send_guarded t.a_states.(src - 1) ~pid:srcp round))
        end
      done

    let cell t src =
      match t.a_cells.(src - 1) with Some e -> e | None -> assert false

    (* [a_key] := the running senders; callers then clear the senders a
       fault removes and look the inbox up. *)
    let key_running t =
      for i = 0 to t.a_n - 1 do
        Bytes.set t.a_key i
          (if Bytes.get t.a_status i = st_running then '\001' else '\000')
      done

    let interned t =
      match Hashtbl.find t.a_inboxes t.a_key with
      | inbox -> inbox
      | exception Not_found ->
          let acc = ref [] in
          for src = t.a_n downto 1 do
            if Bytes.get t.a_key (src - 1) = '\001' then
              acc := cell t src :: !acc
          done;
          Hashtbl.add t.a_inboxes (Bytes.copy t.a_key) !acc;
          !acc

    let relink_spine t =
      if not (Bytes.equal t.a_status t.a_spine_status) then begin
        key_running t;
        t.a_spine <- interned t;
        Bytes.blit t.a_status 0 t.a_spine_status 0 t.a_n
      end

    let reduced_lost t sl_src =
      key_running t;
      Bytes.set t.a_key (sl_src - 1) '\000';
      interned t

    let reduced_dst t sd_srcs =
      key_running t;
      for src = 1 to t.a_n do
        if Bitset.mem src sd_srcs then Bytes.set t.a_key (src - 1) '\000'
      done;
      interned t

    let receive_one t p round inbox =
      let i = Pid.to_int p - 1 in
      let st = t.a_states.(i) in
      let before = A.decision st in
      let st' = receive_guarded st ~pid:p round inbox in
      let after = A.decision st' in
      (match (before, after) with
      | Some v, Some w when not (Value.equal v w) ->
          fail ~pid:p ~round
            (Format.asprintf "changed its decision from %a to %a" Value.pp v
               Value.pp w)
      | Some _, None -> fail ~pid:p ~round "retracted its decision"
      | None, Some v ->
          (* Consing in ascending-pid order leaves this round's decisions
             descending by pid at the front. *)
          t.a_decisions <-
            { Trace.pid = p; round; value = v } :: t.a_decisions
      | None, None | Some _, Some _ -> ());
      t.a_states.(i) <- st';
      if A.halted st' then begin
        Bytes.set t.a_status i st_done;
        t.a_live <- t.a_live - 1
      end

    (* The observed sends, ascending by sender: [Send] and the per-copy
       [Delay]/[Drop] fates. *)
    let observe_sends sink ~n cplan round sent =
      List.iter
        (fun (e : A.msg Envelope.t) ->
          let bytes = n * (Algorithm.header_bytes + A.wire_size e.payload) in
          let src = e.src in
          Obs.Sink.emit sink (Obs.Event.Send { src; round; copies = n; bytes });
          for d = 1 to n do
            let dst = Pid.of_int d in
            if not (Pid.equal dst src) then
              match Schedule.compiled_fate cplan ~src ~dst with
              | Schedule.Same_round -> ()
              | Schedule.Delayed_until until ->
                  Obs.Sink.emit sink
                    (Obs.Event.Delay { src; dst; round; until })
              | Schedule.Lost ->
                  Obs.Sink.emit sink (Obs.Event.Drop { src; dst; round })
          done)
        sent

    let observe_receive sink t p round inbox =
      List.iter
        (fun (e : A.msg Envelope.t) ->
          Obs.Sink.emit sink
            (Obs.Event.Deliver { src = e.src; dst = p; sent = e.sent; round }))
        inbox;
      let before = t.a_decisions in
      receive_one t p round inbox;
      (match t.a_decisions with
      | d :: _ when t.a_decisions != before ->
          Obs.Sink.emit sink
            (Obs.Event.Decide { pid = p; round; value = d.Trace.value })
      | _ -> ());
      if Bytes.get t.a_status (Pid.to_int p - 1) = st_done then
        Obs.Sink.emit sink (Obs.Event.Halt { pid = p; round })

    (* The general path: fate tables, delayed messages, late deliveries due
       this round, and every observed round. Fresh envelopes per sender —
       late envelopes outlive the round and must never alias the mutable
       spine cells. *)
    let step_general t cplan round late_due =
      let n = t.a_n in
      let plan = Schedule.compiled_source cplan in
      let sink = t.a_sink in
      (match sink with
      | Some sink -> Obs.Sink.emit sink (Obs.Event.Round_start { round })
      | None -> ());
      if late_due <> None then t.a_late <- Int_map.remove t.a_next t.a_late;
      let ib = Array.make n [] in
      let sent = ref [] in
      for src = n downto 1 do
        if Bytes.get t.a_status (src - 1) = st_running then begin
          let srcp = Pid.of_int src in
          let env =
            Envelope.make ~src:srcp ~sent:round
              (send_guarded t.a_states.(src - 1) ~pid:srcp round)
          in
          (match sink with Some _ -> sent := env :: !sent | None -> ());
          for dst = 1 to n do
            if dst = src then ib.(dst - 1) <- env :: ib.(dst - 1)
            else
              match
                Schedule.compiled_fate cplan ~src:srcp ~dst:(Pid.of_int dst)
              with
              | Schedule.Same_round -> ib.(dst - 1) <- env :: ib.(dst - 1)
              | Schedule.Lost -> ()
              | Schedule.Delayed_until until ->
                  let k = Round.to_int until in
                  let dstp = Pid.of_int dst in
                  let per =
                    Option.value
                      (Int_map.find_opt k t.a_late)
                      ~default:Pid.Map.empty
                  in
                  let q = Option.value (Pid.Map.find_opt dstp per) ~default:[] in
                  t.a_late <-
                    Int_map.add k (Pid.Map.add dstp (env :: q) per) t.a_late
          done
        end
      done;
      (match sink with
      | Some sink -> observe_sends sink ~n cplan round !sent
      | None -> ());
      (match late_due with
      | None -> ()
      | Some per ->
          (* Late arrivals break the by-construction sender order. *)
          Pid.Map.iter
            (fun dst q ->
              let i = Pid.to_int dst - 1 in
              ib.(i) <-
                List.sort Envelope.compare_src (List.rev_append q ib.(i)))
            per);
      apply_crashes t round sink plan.Schedule.crashes;
      for i = 0 to n - 1 do
        if Bytes.get t.a_status i = st_running then
          let p = Pid.of_int (i + 1) in
          match sink with
          | None -> receive_one t p round ib.(i)
          | Some sink -> observe_receive sink t p round ib.(i)
      done;
      t.a_next <- t.a_next + 1

    (* A raising step leaves the arena mid-round (dirty); the DFS contract
       is that the caller rewinds to a snapshot before touching it again. *)
    let step t cplan =
      let n = t.a_n in
      let round = Round.of_int t.a_next in
      let fates = Schedule.compiled_fates cplan in
      let late_due =
        if Int_map.is_empty t.a_late then None
        else Int_map.find_opt t.a_next t.a_late
      in
      match fates with
      | (Schedule.Quiet | Schedule.Single_lost _ | Schedule.Single_dst _)
        when late_due = None && t.a_sink == None ->
          (* Fast path: refresh the spine in place; at most one reduced
             inbox (the victim's messages removed, or the starved
             receiver's view) is looked up per round — nothing allocated
             once every running set has been met. *)
          refresh_cells t round;
          relink_spine t;
          let reduced =
            match fates with
            | Schedule.Quiet | Schedule.Table _ -> []
            | Schedule.Single_lost { sl_src; _ } -> reduced_lost t sl_src
            | Schedule.Single_dst { sd_srcs; _ } -> reduced_dst t sd_srcs
          in
          apply_crashes t round None
            (Schedule.compiled_source cplan).Schedule.crashes;
          for i = 0 to n - 1 do
            if Bytes.get t.a_status i = st_running then
              receive_one t (Pid.of_int (i + 1)) round
                (match fates with
                | Schedule.Single_lost { sl_dsts; _ }
                  when Bitset.mem (i + 1) sl_dsts ->
                    reduced
                | Schedule.Single_dst { sd_dst; _ } when sd_dst = i + 1 -> reduced
                | _ -> t.a_spine)
          done;
          t.a_next <- t.a_next + 1
      | _ -> step_general t cplan round late_due

    let trace ~schedule t =
      {
        Trace.algorithm = A.name;
        config = t.a_config;
        proposals = t.a_proposals;
        schedule;
        decisions = List.rev t.a_decisions;
        crashes = crashed t;
        rounds_executed = t.a_next - 1;
        all_halted = t.a_live = 0;
      }

    let finish ?max_rounds ?prof ~schedule t =
      let max_rounds =
        Option.value max_rounds
          ~default:(default_max_rounds t.a_config schedule)
      in
      let n = t.a_n in
      let horizon = Schedule.horizon schedule in
      (* One preallocated thunk: [measure] per round must not cost a
         closure per round. *)
      let step_once () =
        if t.a_next <= horizon then
          step t
            (Schedule.compile_plan ~n
               (Schedule.plan_at schedule (Round.of_int t.a_next)))
        else step t Schedule.compiled_empty_plan
      in
      (match prof with
      | None ->
          while t.a_live > 0 && t.a_next <= max_rounds do
            step_once ()
          done
      | Some a ->
          while t.a_live > 0 && t.a_next <= max_rounds do
            Obs.Prof.measure a step_once
          done);
      trace ~schedule t
  end

  let run ?(sink = Obs.Sink.noop) ?max_rounds ?prof config ~proposals schedule
      =
    let emitting = Obs.Sink.enabled sink in
    if emitting then
      Obs.Sink.emit sink
        (Obs.Event.Run_start
           {
             algorithm = A.name;
             n = Config.n config;
             t = Config.t config;
             proposals = Pid.Map.bindings proposals;
             omitters = Schedule.omitters schedule;
           });
    let arena = Arena.create config ~proposals in
    if emitting then arena.Arena.a_sink <- Some sink;
    let trace = Arena.finish ?max_rounds ?prof ~schedule arena in
    if emitting then
      Obs.Sink.emit sink
        (Obs.Event.Run_end
           {
             rounds = trace.Trace.rounds_executed;
             decided = List.length trace.Trace.decisions;
             all_halted = trace.Trace.all_halted;
           });
    trace
end
