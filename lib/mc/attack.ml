open Kernel

type report = {
  algorithm : string;
  config : Config.t;
  proposals : Value.t Pid.Map.t;
  schedule : Sim.Schedule.t;
  trace : Sim.Trace.t;
  events : Obs.Event.t list;
  violations : Sim.Props.violation list;
}

let report algo config ~proposals schedule =
  let sink, drain = Obs.Sink.memory () in
  let trace = Sim.Runner.run ~sink algo config ~proposals schedule in
  {
    algorithm = Sim.Algorithm.name algo;
    config;
    proposals;
    schedule;
    trace;
    events = drain ();
    violations = Sim.Props.check_agreement trace;
  }

let pp_report ppf r =
  Format.fprintf ppf "@[<v>attack on %s %a:@,%a@,%a%a@]" r.algorithm Config.pp
    r.config Sim.Schedule.pp r.schedule Sim.Trace.pp_summary r.trace
    (fun ppf () ->
      List.iter
        (fun v -> Format.fprintf ppf "@,VIOLATION: %a" Sim.Props.pp_violation v)
        r.violations)
    ()

let witness_schedule config =
  Config.validate_indulgent config;
  let n = Config.n config and t = Config.t config in
  let chain_round r =
    (* p_r crashes carrying the 0-chain to p_{r+1} only. *)
    let victim = Pid.of_int r in
    let keep = Pid.of_int (r + 1) in
    {
      Sim.Schedule.crashes = [ victim ];
      lost =
        List.filter_map
          (fun dst -> if Pid.equal dst keep then None else Some (victim, dst))
          (Pid.others ~n victim);
      delayed = [];
    }
  in
  let false_suspicion_round =
    (* p_t is falsely suspected: its round-t message reaches only p_{t+1}
       in-round; every other copy arrives at round t+2. *)
    let src = Pid.of_int t in
    let spare = Pid.of_int (t + 1) in
    {
      Sim.Schedule.crashes = [];
      lost = [];
      delayed =
        List.filter_map
          (fun dst ->
            if Pid.equal dst spare then None
            else Some (src, dst, Round.of_int (t + 2)))
          (Pid.others ~n src);
    }
  in
  let final_crash_round =
    (* p_{t+1} crashes, heard only by p_t. *)
    let victim = Pid.of_int (t + 1) in
    let keep = Pid.of_int t in
    {
      Sim.Schedule.crashes = [ victim ];
      lost =
        List.filter_map
          (fun dst -> if Pid.equal dst keep then None else Some (victim, dst))
          (Pid.others ~n victim);
      delayed = [];
    }
  in
  Sim.Schedule.make ~model:Sim.Model.Es
    ~gst:(Round.of_int (t + 1))
    (List.map chain_round (Listx.range 1 (t - 1))
    @ [ false_suspicion_round; final_crash_round ])

let witness_proposals config =
  Sim.Runner.binary_proposals config
    ~ones:(Pid.Set.of_ints (Listx.range 2 (Config.n config)))

let run_witness algo config =
  report algo config ~proposals:(witness_proposals config)
    (witness_schedule config)

let solo_split_schedule ?rounds config =
  Config.validate_indulgent config;
  let n = Config.n config and t = Config.t config in
  let rounds = Option.value rounds ~default:(t + 1) in
  let p1 = Pid.of_int 1 in
  let plan =
    {
      Sim.Schedule.crashes = [];
      lost = [];
      delayed =
        List.map
          (fun dst -> (p1, dst, Round.of_int (rounds + 1)))
          (Pid.others ~n p1);
    }
  in
  Sim.Schedule.make ~model:Sim.Model.Es
    ~gst:(Round.of_int (rounds + 1))
    (List.map (fun _ -> plan) (Listx.range 1 rounds))

(* Section 1.4: in the DLS basic round model the same attack needs no
   delayed messages at all — the isolating copies are simply lost, which
   that model permits for any sender before stabilisation. *)
let solo_split_dls config =
  Config.validate_indulgent config;
  let n = Config.n config and t = Config.t config in
  let p1 = Pid.of_int 1 in
  let plan =
    {
      Sim.Schedule.crashes = [];
      lost = List.map (fun dst -> (p1, dst)) (Pid.others ~n p1);
      delayed = [];
    }
  in
  Sim.Schedule.make ~model:Sim.Model.Dls_basic
    ~gst:(Round.of_int (t + 2))
    (List.map (fun _ -> plan) (Listx.range 1 (t + 1)))

let run_solo_split_dls algo config =
  report algo config ~proposals:(witness_proposals config)
    (solo_split_dls config)

let run_solo_split algo config =
  report algo config ~proposals:(witness_proposals config)
    (solo_split_schedule config)

let floodset_ws_witness config =
  run_witness (Sim.Algorithm.Packed (module Baselines.Floodset_ws)) config
