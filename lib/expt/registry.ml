open Kernel

type regime = Indulgent | Third | Any_t

type entry = {
  label : string;
  algo : Sim.Algorithm.packed;
  model : Sim.Model.t;
  regime : regime;
  indulgent : bool;
  sync_worst_case : Config.t -> int;
  reference : string;
}

let floodset =
  {
    label = "FloodSet";
    algo = Sim.Algorithm.Packed (module Baselines.Floodset);
    model = Sim.Model.Scs;
    regime = Any_t;
    indulgent = false;
    sync_worst_case = (fun c -> Config.t c + 1);
    reference = "Lynch 96 [13], SCS optimal";
  }

let floodset_ws =
  {
    label = "FloodSetWS";
    algo = Sim.Algorithm.Packed (module Baselines.Floodset_ws);
    model = Sim.Model.Scs;
    regime = Any_t;
    indulgent = false;
    sync_worst_case = (fun c -> Config.t c + 1);
    reference = "Charron-Bost et al. 00 [3], P-based";
  }

let early_floodset =
  {
    label = "EarlyFS";
    algo = Sim.Algorithm.Packed (module Baselines.Early_floodset);
    model = Sim.Model.Scs;
    regime = Any_t;
    indulgent = false;
    sync_worst_case = (fun c -> Config.t c + 1);
    reference = "Charron-Bost-Schiper [4] / Keidar-Rajsbaum [11]";
  }

let floodmin =
  {
    label = "FloodMin";
    algo = Sim.Algorithm.Packed (module Baselines.Floodmin.Std);
    model = Sim.Model.Scs;
    regime = Any_t;
    indulgent = false;
    sync_worst_case = (fun c -> Config.t c + 1);
    reference = "Lynch 96 [13], min-flooding";
  }

let at_plus_2 =
  {
    label = "A(t+2)";
    algo = Sim.Algorithm.Packed (module Indulgent.At_plus_2.Standard);
    model = Sim.Model.Es;
    regime = Indulgent;
    indulgent = true;
    sync_worst_case = (fun c -> Config.t c + 2);
    reference = "this paper, Fig. 2";
  }

let at_plus_2_opt =
  {
    label = "A(t+2)+ff";
    algo = Sim.Algorithm.Packed (module Indulgent.At_plus_2.Optimized);
    model = Sim.Model.Es;
    regime = Indulgent;
    indulgent = true;
    sync_worst_case = (fun c -> Config.t c + 2);
    reference = "this paper, Fig. 4";
  }

let at_plus_2_slow =
  {
    label = "A(t+2)/slowC";
    algo = Sim.Algorithm.Packed (module Indulgent.At_plus_2.Slow_fallback);
    model = Sim.Model.Es;
    regime = Indulgent;
    indulgent = true;
    sync_worst_case = (fun c -> Config.t c + 2);
    reference = "this paper, Fig. 2 + padded C";
  }

let a_diamond_s =
  {
    label = "A<>S";
    algo = Sim.Algorithm.Packed (module Indulgent.A_diamond_s);
    model = Sim.Model.Es;
    regime = Indulgent;
    indulgent = true;
    sync_worst_case = (fun c -> Config.t c + 2);
    reference = "this paper, Fig. 3";
  }

let hurfin_raynal =
  {
    label = "HR-<>S";
    algo = Sim.Algorithm.Packed (module Baselines.Hurfin_raynal);
    model = Sim.Model.Es;
    regime = Indulgent;
    indulgent = true;
    sync_worst_case = (fun c -> (2 * Config.t c) + 2);
    reference = "Hurfin-Raynal 99 [10]";
  }

let ct_diamond_s =
  {
    label = "CT-<>S";
    algo = Sim.Algorithm.Packed (module Baselines.Ct_diamond_s);
    model = Sim.Model.Es;
    regime = Indulgent;
    indulgent = true;
    sync_worst_case = (fun c -> (4 * Config.t c) + 4);
    reference = "Chandra-Toueg 96 [2]";
  }

let amr =
  {
    label = "AMR-leader";
    algo = Sim.Algorithm.Packed (module Baselines.Amr);
    model = Sim.Model.Es;
    regime = Third;
    indulgent = true;
    sync_worst_case = (fun c -> (2 * Config.t c) + 2);
    reference = "Mostefaoui-Raynal 01 [14]";
  }

let dls =
  {
    label = "DLS";
    algo = Sim.Algorithm.Packed (module Baselines.Dls);
    model = Sim.Model.Dls_basic;
    regime = Indulgent;
    indulgent = true;
    sync_worst_case = (fun c -> (4 * Config.t c) + 4);
    reference = "Dwork-Lynch-Stockmeyer 88 [6]";
  }

let af_plus_2 =
  {
    label = "A(f+2)";
    algo = Sim.Algorithm.Packed (module Indulgent.Af_plus_2);
    model = Sim.Model.Es;
    regime = Third;
    indulgent = true;
    sync_worst_case = (fun c -> Config.t c + 2);
    reference = "this paper, Fig. 5";
  }

let all =
  [
    floodset;
    floodset_ws;
    early_floodset;
    floodmin;
    at_plus_2;
    at_plus_2_opt;
    at_plus_2_slow;
    a_diamond_s;
    hurfin_raynal;
    ct_diamond_s;
    amr;
    af_plus_2;
    dls;
  ]

let find label = List.find_opt (fun e -> String.equal e.label label) all

let applicable entry config =
  match entry.regime with
  | Any_t -> true
  | Indulgent -> Config.has_majority_resilience config
  | Third -> Config.has_third_resilience config

let pp_regime ppf regime =
  Format.pp_print_string ppf
    (match regime with
    | Indulgent -> "0 < t < n/2"
    | Third -> "t < n/3"
    | Any_t -> "t < n")
