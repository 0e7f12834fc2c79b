open Kernel

type decision = { pid : Pid.t; round : Round.t; value : Value.t }

type t = {
  algorithm : string;
  config : Config.t;
  proposals : Value.t Pid.Map.t;
  schedule : Schedule.t;
  decisions : decision list;
  crashes : (Pid.t * Round.t) list;
  rounds_executed : int;
  all_halted : bool;
}

let decision_of trace pid =
  List.find_opt (fun d -> Pid.equal d.pid pid) trace.decisions

let decided_values trace = List.map (fun d -> d.value) trace.decisions

let global_decision_round trace =
  List.fold_left
    (fun acc (d : decision) ->
      match acc with
      | None -> Some d.round
      | Some r -> Some (Round.max r d.round))
    None trace.decisions

let first_decision_round trace =
  List.fold_left
    (fun acc (d : decision) ->
      match acc with
      | None -> Some d.round
      | Some r -> if Round.(d.round < r) then Some d.round else Some r)
    None trace.decisions

let correct trace =
  let faulty = List.map fst trace.crashes in
  let omitting = Schedule.omitter_set trace.schedule in
  List.filter
    (fun p ->
      (not (List.exists (Pid.equal p) faulty))
      && not (Pid.Set.mem p omitting))
    (Config.processes trace.config)

let pp_summary ppf trace =
  let pp_decision ppf (d : decision) =
    Format.fprintf ppf "%a:%a@@r%d" Pid.pp d.pid Value.pp d.value
      (Round.to_int d.round)
  in
  Format.fprintf ppf
    "@[<v>%s on %a, %s run: %d round(s) executed, %d crash(es)@,\
     decisions: [%a]%a@]"
    trace.algorithm Config.pp trace.config
    (if Schedule.synchronous trace.schedule then "synchronous"
     else "asynchronous")
    trace.rounds_executed
    (List.length trace.crashes)
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.fprintf ppf ";@ ")
       pp_decision)
    trace.decisions
    (fun ppf () ->
      match global_decision_round trace with
      | Some r -> Format.fprintf ppf "@,global decision at round %d" (Round.to_int r)
      | None -> Format.fprintf ppf "@,no decision")
    ()
