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
  (* p_r crashes carrying the 0-chain to p_{r+1} only. *)
  let chain_round r =
    Sim.Schedule.crash ~n ~heard_by:(Pid.Set.of_ints [ r + 1 ]) (Pid.of_int r)
  in
  (* p_t is falsely suspected: its round-t message reaches only p_{t+1}
     in-round; every other copy arrives at round t+2. *)
  let false_suspicion_round =
    Sim.Schedule.delay ~n
      ~except:(Pid.Set.of_ints [ t + 1 ])
      (Pid.of_int t)
      ~until:(Round.of_int (t + 2))
  in
  (* p_{t+1} crashes, heard only by p_t. *)
  let final_crash_round =
    Sim.Schedule.crash ~n ~heard_by:(Pid.Set.of_ints [ t ]) (Pid.of_int (t + 1))
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
  let plan =
    Sim.Schedule.delay ~n ~except:Pid.Set.empty (Pid.of_int 1)
      ~until:(Round.of_int (rounds + 1))
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
