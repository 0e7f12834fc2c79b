open Kernel

type relation = { description : string; holds : bool }

type outcome = {
  config : Config.t;
  p : Pid.t;
  q : Pid.t;
  k' : int;
  s1 : Sim.Schedule.t;
  s0 : Sim.Schedule.t;
  a2 : Sim.Schedule.t;
  a1 : Sim.Schedule.t;
  a0 : Sim.Schedule.t;
  q_decision_s1 : Value.t option;
  q_decision_s0 : Value.t option;
  q_decision_a1 : Value.t option;
  q_decision_a0 : Value.t option;
  relations : relation list;
  agreement_violated : bool;
}

let all_hold outcome =
  List.for_all (fun r -> r.holds) outcome.relations
  && outcome.agreement_violated

let pp_outcome ppf o =
  Format.fprintf ppf
    "@[<v>Fig. 1 construction at %a (P = %a, Q = %a, k' = %d):@," Config.pp
    o.config Pid.pp o.p Pid.pp o.q o.k';
  let pp_dec ppf = function
    | Some v -> Value.pp ppf v
    | None -> Format.pp_print_string ppf "-"
  in
  Format.fprintf ppf
    "Q decides: s1 -> %a, s0 -> %a, a1 -> %a, a0 -> %a@," pp_dec
    o.q_decision_s1 pp_dec o.q_decision_s0 pp_dec o.q_decision_a1 pp_dec
    o.q_decision_a0;
  List.iter
    (fun r ->
      Format.fprintf ppf "  [%s] %s@," (if r.holds then "ok" else "FAIL")
        r.description)
    o.relations;
  Format.fprintf ppf "uniform agreement violated in a1 or a0: %b@]"
    o.agreement_violated

(* ------------------------------------------------------------------ *)
(* The five schedules                                                  *)

let schedules config ~k' =
  let n = Config.n config and t = Config.t config in
  let p = Pid.of_int t and q = Pid.of_int n in
  let only x = Pid.Set.singleton x in
  (* Rounds 1..t-1: the chain, p_r heard only by p_{r+1}. *)
  let prefix =
    List.map
      (fun r ->
        Sim.Schedule.crash ~n
          ~heard_by:(only (Pid.of_int (r + 1)))
          (Pid.of_int r))
      (Listx.range 1 (t - 1))
  in
  let silent victim = Sim.Schedule.crash ~n ~heard_by:Pid.Set.empty victim in
  let sync plans = Sim.Schedule.make ~model:Sim.Model.Es ~gst:Round.first plans in
  let async plans =
    Sim.Schedule.make ~model:Sim.Model.Es ~gst:(Round.of_int (t + 2)) plans
  in
  let s1 = sync (prefix @ [ silent p ]) in
  let s0 = sync (prefix @ [ Sim.Schedule.crash ~n ~heard_by:(only q) p ]) in
  (* Round t of the asynchronous runs: P is alive but falsely suspected —
     its messages are delayed to round t+2. In a0, Q still hears P, exactly
     as in s0. *)
  let p_slandered ~except =
    Sim.Schedule.delay ~n ~except p ~until:(Round.of_int (t + 2))
  in
  let a2 = async (prefix @ [ p_slandered ~except:Pid.Set.empty; silent q ]) in
  (* Round t+1 of a1/a0: everyone falsely suspects Q (its messages arrive at
     k'+1) and Q falsely suspects P; Q crashes silently at t+2. *)
  let q_slandered =
    let base =
      Sim.Schedule.delay ~n ~except:Pid.Set.empty q
        ~until:(Round.of_int (k' + 1))
    in
    { base with delayed = (p, q, Round.of_int (t + 2)) :: base.delayed }
  in
  let a1 =
    async
      (prefix @ [ p_slandered ~except:Pid.Set.empty; q_slandered; silent q ])
  in
  let a0 =
    async (prefix @ [ p_slandered ~except:(only q); q_slandered; silent q ])
  in
  (p, q, s1, s0, a2, a1, a0)

(* ------------------------------------------------------------------ *)
(* Execution and state comparison                                      *)

module Make (A : Sim.Algorithm.S) = struct
  module E = Sim.Engine.Make (A)

  (* Every process's state after each round 1..rounds ([None] once
     crashed); states are immutable, so capturing them is enough. *)
  let snapshots config proposals schedule ~rounds =
    let n = Config.n config in
    let arena = E.Arena.create config ~proposals in
    Array.init rounds (fun k ->
        E.Arena.step arena
          (Sim.Schedule.compile_plan ~n
             (Sim.Schedule.plan_at schedule (Round.of_int (k + 1))));
        Array.init n (fun i -> E.Arena.state_of arena (Pid.of_int (i + 1))))

  let state_at snaps round pid = snaps.(round - 1).(Pid.to_int pid - 1)

  let decision_of_trace (trace : Sim.Trace.t) pid =
    Option.map
      (fun (d : Sim.Trace.decision) -> d.value)
      (Sim.Trace.decision_of trace pid)

  let run config =
    Config.validate_indulgent config;
    let t = Config.t config in
    let proposals = Attack.witness_proposals config in
    let trace_of schedule = E.run config ~proposals schedule in
    (* First pass: build a2 with a provisional k' to learn the real k'. *)
    let _, _, _, _, a2_prov, _, _ = schedules config ~k':(t + 1) in
    let k' =
      match Sim.Trace.global_decision_round (trace_of a2_prov) with
      | Some r -> Round.to_int r
      | None -> t + 1
    in
    let p, q, s1, s0, a2, a1, a0 = schedules config ~k' in
    let horizon = k' + 3 in
    let snap schedule = snapshots config proposals schedule ~rounds:horizon in
    let sn_s1 = snap s1
    and sn_s0 = snap s0
    and sn_a2 = snap a2
    and sn_a1 = snap a1
    and sn_a0 = snap a0 in
    let tr_s1 = trace_of s1
    and tr_s0 = trace_of s0
    and tr_a2 = trace_of a2
    and tr_a1 = trace_of a1
    and tr_a0 = trace_of a0 in
    let q_dec tr = decision_of_trace tr q in
    let others =
      List.filter
        (fun r -> not (Pid.equal r q))
        (Config.processes config)
    in
    let same_state snaps_a snaps_b round pid =
      Stdlib.compare (state_at snaps_a round pid) (state_at snaps_b round pid)
      = 0
    in
    let relations =
      [
        {
          description = "s1 is synchronous and Q decides 1 at t+1";
          holds =
            Sim.Schedule.synchronous s1
            && q_dec tr_s1 = Some Value.one
            && Sim.Props.decided_by tr_s1 (Round.of_int (t + 1));
        };
        {
          description = "s0 is synchronous and Q decides 0 at t+1";
          holds =
            Sim.Schedule.synchronous s0
            && q_dec tr_s0 = Some Value.zero
            && Sim.Props.decided_by tr_s0 (Round.of_int (t + 1));
        };
        {
          description =
            "a2/a1/a0 are legal ES schedules (validated) and asynchronous";
          holds =
            List.for_all
              (fun s ->
                Sim.Schedule.validate config s = Ok ()
                && not (Sim.Schedule.synchronous s))
              [ a2; a1; a0 ];
        };
        {
          description =
            "Q cannot distinguish a1 from s1 at the end of round t+1";
          holds = same_state sn_a1 sn_s1 (t + 1) q;
        };
        {
          description =
            "Q cannot distinguish a0 from s0 at the end of round t+1";
          holds = same_state sn_a0 sn_s0 (t + 1) q;
        };
        {
          description =
            "processes other than Q cannot distinguish a2, a1, a0 through \
             round k'";
          holds =
            List.for_all
              (fun round ->
                List.for_all
                  (fun r ->
                    same_state sn_a2 sn_a1 round r
                    && same_state sn_a1 sn_a0 round r)
                  others)
              (Listx.range 1 k');
        };
        {
          description = "Q decides 1 in a1 and 0 in a0";
          holds =
            q_dec tr_a1 = Some Value.one && q_dec tr_a0 = Some Value.zero;
        };
        {
          description =
            "every process other than Q decides the same value in a2, a1, a0";
          holds =
            List.for_all
              (fun r ->
                let d2 = decision_of_trace tr_a2 r
                and d1 = decision_of_trace tr_a1 r
                and d0 = decision_of_trace tr_a0 r in
                d2 = d1 && d1 = d0)
              others;
        };
      ]
    in
    let violated trace =
      List.exists
        (function Sim.Props.Agreement _ -> true | _ -> false)
        (Sim.Props.check_agreement trace)
    in
    {
      config;
      p;
      q;
      k';
      s1;
      s0;
      a2;
      a1;
      a0;
      q_decision_s1 = q_dec tr_s1;
      q_decision_s0 = q_dec tr_s0;
      q_decision_a1 = q_dec tr_a1;
      q_decision_a0 = q_dec tr_a0;
      relations;
      agreement_violated = violated tr_a1 || violated tr_a0;
    }
end

module Against_ws = Make (Baselines.Floodset_ws)

let against_floodset_ws = Against_ws.run
