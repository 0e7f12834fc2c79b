type acc = {
  (* The probe's own allocation per interval (one [Gc.quick_stat] record
     plus the boxed [Gc.minor_words] results), calibrated at creation by
     measuring empty intervals through {!measure} itself and subtracted
     from every interval so empty intervals read as zero. *)
  mutable self_words : float;
  mutable n : int;
  mutable minor_sum : float;
  mutable minor_sumsq : float;
  mutable minor_min : float;
  mutable minor_max : float;
  mutable major : float;
  mutable promoted : float;
  mutable minor_cols : int;
  mutable major_cols : int;
}

(* [Gc.quick_stat] (and [Gc.counters]) only refresh their counters at
   collections on OCaml 5, so their [minor_words] stand still between
   minor GCs; [Gc.minor_words] reads the domain-local allocation pointer
   and is exact. Minor words — the headline per-interval signal — come
   from the latter; collection counts and major/promoted totals, which
   only ever advance at collections anyway, come from [quick_stat]. *)
let note a w0 (s0 : Gc.stat) =
  (* Read the allocation pointer before [quick_stat] so the interval does
     not absorb the probe's own record. *)
  let w1 = Gc.minor_words () in
  let s1 = Gc.quick_stat () in
  let minor = Float.max 0. (w1 -. w0 -. a.self_words) in
  a.n <- a.n + 1;
  a.minor_sum <- a.minor_sum +. minor;
  a.minor_sumsq <- a.minor_sumsq +. (minor *. minor);
  if minor < a.minor_min then a.minor_min <- minor;
  if minor > a.minor_max then a.minor_max <- minor;
  a.major <- a.major +. (s1.Gc.major_words -. s0.Gc.major_words);
  a.promoted <- a.promoted +. (s1.Gc.promoted_words -. s0.Gc.promoted_words);
  a.minor_cols <- a.minor_cols + (s1.Gc.minor_collections - s0.Gc.minor_collections);
  a.major_cols <- a.major_cols + (s1.Gc.major_collections - s0.Gc.major_collections)

let measure a f =
  let w0 = Gc.minor_words () in
  let s0 = Gc.quick_stat () in
  match f () with
  | v ->
      note a w0 s0;
      v
  | exception e ->
      note a w0 s0;
      raise e

let acc () =
  let a =
    {
      self_words = 0.;
      n = 0;
      minor_sum = 0.;
      minor_sumsq = 0.;
      minor_min = infinity;
      minor_max = neg_infinity;
      major = 0.;
      promoted = 0.;
      minor_cols = 0;
      major_cols = 0;
    }
  in
  (* Calibrate against real empty intervals: the minimum over a few
     [measure]d no-ops is exactly the probe's own footprint (boxed
     [Gc.minor_words] result plus the [quick_stat] record), whatever the
     runtime makes it. A first-principles estimate measured outside
     [measure] undercounts and leaves every interval with a constant
     positive bias. *)
  for _ = 1 to 3 do
    measure a ignore
  done;
  a.self_words <- Float.max 0. a.minor_min;
  a.n <- 0;
  a.minor_sum <- 0.;
  a.minor_sumsq <- 0.;
  a.minor_min <- infinity;
  a.minor_max <- neg_infinity;
  a.major <- 0.;
  a.promoted <- 0.;
  a.minor_cols <- 0;
  a.major_cols <- 0;
  a

let intervals a = a.n

let flush a ~metrics ~prefix ~per =
  if a.n > 0 then begin
    Metrics.fold_samples
      (Metrics.histogram metrics
         (prefix ^ ".minor_words_per_" ^ per))
      ~count:a.n ~sum:a.minor_sum ~sumsq:a.minor_sumsq ~min:a.minor_min
      ~max:a.minor_max;
    Metrics.incr ~by:a.minor_cols
      (Metrics.counter metrics (prefix ^ ".minor_collections"));
    Metrics.incr ~by:a.major_cols
      (Metrics.counter metrics (prefix ^ ".major_collections"));
    Metrics.incr
      ~by:(int_of_float a.major)
      (Metrics.counter metrics (prefix ^ ".major_words"));
    Metrics.incr
      ~by:(int_of_float a.promoted)
      (Metrics.counter metrics (prefix ^ ".promoted_words"))
  end
