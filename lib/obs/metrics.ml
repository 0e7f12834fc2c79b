type counter = { c_name : string; mutable count : int }
type gauge = { g_name : string; mutable value : int option }

type hist_state = {
  mutable h_count : int;
  mutable sum : float;
  mutable sumsq : float;
  mutable h_min : float;
  mutable h_max : float;
}

type histogram = { h_name : string; state : hist_state }

type instrument =
  | Counter of counter
  | Gauge of gauge
  | Histogram of histogram

type t = { mutable rev_instruments : instrument list }

let create () = { rev_instruments = [] }

let instrument_name = function
  | Counter c -> c.c_name
  | Gauge g -> g.g_name
  | Histogram h -> h.h_name

let find t name =
  List.find_opt (fun i -> instrument_name i = name) t.rev_instruments

let register t i = t.rev_instruments <- i :: t.rev_instruments

let counter t name =
  match find t name with
  | Some (Counter c) -> c
  | Some _ -> invalid_arg ("Metrics.counter: " ^ name ^ " is not a counter")
  | None ->
      let c = { c_name = name; count = 0 } in
      register t (Counter c);
      c

let incr ?(by = 1) c = c.count <- c.count + by

let gauge t name =
  match find t name with
  | Some (Gauge g) -> g
  | Some _ -> invalid_arg ("Metrics.gauge: " ^ name ^ " is not a gauge")
  | None ->
      let g = { g_name = name; value = None } in
      register t (Gauge g);
      g

let set g v = g.value <- Some v
let gauge_value g = g.value

let histogram t name =
  match find t name with
  | Some (Histogram h) -> h
  | Some _ ->
      invalid_arg ("Metrics.histogram: " ^ name ^ " is not a histogram")
  | None ->
      let h =
        {
          h_name = name;
          state =
            { h_count = 0; sum = 0.; sumsq = 0.; h_min = infinity; h_max = neg_infinity };
        }
      in
      register t (Histogram h);
      h

let observe h x =
  let s = h.state in
  s.h_count <- s.h_count + 1;
  s.sum <- s.sum +. x;
  s.sumsq <- s.sumsq +. (x *. x);
  if x < s.h_min then s.h_min <- x;
  if x > s.h_max then s.h_max <- x

type summary = {
  count : int;
  mean : float;
  stddev : float;
  min : float;
  max : float;
}

let summary h =
  let s = h.state in
  if s.h_count = 0 then None
  else
    let n = float_of_int s.h_count in
    let mean = s.sum /. n in
    let variance = Float.max 0. ((s.sumsq /. n) -. (mean *. mean)) in
    Some
      {
        count = s.h_count;
        mean;
        stddev = sqrt variance;
        min = s.h_min;
        max = s.h_max;
      }

let fold_samples h ~count ~sum ~sumsq ~min:mn ~max:mx =
  if count < 0 then invalid_arg "Metrics.fold_samples: negative count";
  if count > 0 then begin
    let s = h.state in
    s.h_count <- s.h_count + count;
    s.sum <- s.sum +. sum;
    s.sumsq <- s.sumsq +. sumsq;
    if mn < s.h_min then s.h_min <- mn;
    if mx > s.h_max then s.h_max <- mx
  end

let find_counter t name =
  match find t name with Some (Counter c) -> Some c.count | _ -> None

let find_gauge t name =
  match find t name with Some (Gauge g) -> g.value | _ -> None

let find_histogram t name =
  match find t name with Some (Histogram h) -> summary h | _ -> None

let instruments t = List.rev t.rev_instruments

let pp ppf t =
  Format.fprintf ppf "@[<v>";
  List.iteri
    (fun i instrument ->
      if i > 0 then Format.fprintf ppf "@,";
      match instrument with
      | Counter c -> Format.fprintf ppf "%-28s %d" c.c_name c.count
      | Gauge g ->
          Format.fprintf ppf "%-28s %s" g.g_name
            (match g.value with Some v -> string_of_int v | None -> "-")
      | Histogram h -> (
          match summary h with
          | None -> Format.fprintf ppf "%-28s (empty)" h.h_name
          | Some s ->
              Format.fprintf ppf
                "%-28s n=%d mean=%.6g stddev=%.6g min=%.6g max=%.6g" h.h_name
                s.count s.mean s.stddev s.min s.max))
    (instruments t);
  Format.fprintf ppf "@]"

let to_json t =
  let counters, gauges, histograms =
    List.fold_left
      (fun (cs, gs, hs) instrument ->
        match instrument with
        | Counter c -> ((c.c_name, Json.Int c.count) :: cs, gs, hs)
        | Gauge g ->
            let v =
              match g.value with Some v -> Json.Int v | None -> Json.Null
            in
            (cs, (g.g_name, v) :: gs, hs)
        | Histogram h ->
            let v =
              match summary h with
              | None -> Json.Null
              | Some s ->
                  Json.Obj
                    [
                      ("count", Json.Int s.count);
                      ("mean", Json.Float s.mean);
                      ("stddev", Json.Float s.stddev);
                      ("min", Json.Float s.min);
                      ("max", Json.Float s.max);
                    ]
            in
            (cs, gs, (h.h_name, v) :: hs))
      ([], [], []) (instruments t)
  in
  Json.Obj
    [
      ("counters", Json.Obj (List.rev counters));
      ("gauges", Json.Obj (List.rev gauges));
      ("histograms", Json.Obj (List.rev histograms));
    ]

let counting_sink t =
  let runs = counter t "sim.runs" in
  let rounds = counter t "sim.rounds" in
  let broadcasts = counter t "sim.broadcasts" in
  let sent = counter t "sim.messages_sent" in
  let delivered = counter t "sim.messages_delivered" in
  let dropped = counter t "sim.messages_dropped" in
  let delayed = counter t "sim.messages_delayed" in
  let bytes = counter t "sim.bytes_sent" in
  let crashes = counter t "sim.crashes" in
  let decisions = counter t "sim.decisions" in
  let halts = counter t "sim.halts" in
  let fd_outputs = counter t "sim.fd_outputs" in
  let first_decision = gauge t "sim.first_decision_round" in
  let global_decision = gauge t "sim.global_decision_round" in
  let rounds_per_run = histogram t "sim.rounds_per_run" in
  Sink.make (fun ev ->
      match ev with
      | Event.Run_start _ -> ()
      | Event.Round_start _ -> incr rounds
      | Event.Send { copies; bytes = b; _ } ->
          incr broadcasts;
          incr ~by:copies sent;
          incr ~by:b bytes
      | Event.Deliver _ -> incr delivered
      | Event.Drop _ -> incr dropped
      | Event.Delay _ -> incr delayed
      | Event.Crash _ -> incr crashes
      | Event.Decide { round; _ } ->
          incr decisions;
          let r = Kernel.Round.to_int round in
          (match gauge_value first_decision with
          | Some prev when prev <= r -> ()
          | Some _ | None -> set first_decision r);
          (match gauge_value global_decision with
          | Some prev when prev >= r -> ()
          | Some _ | None -> set global_decision r)
      | Event.Halt _ -> incr halts
      | Event.Fd_output _ -> incr fd_outputs
      | Event.Run_end { rounds = r; _ } ->
          incr runs;
          observe rounds_per_run (float_of_int r))
