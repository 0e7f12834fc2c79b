type record = {
  label : string;
  depth : int;
  start_us : int;
  dur_us : int;
  cpu_us : int;
  minor_words : float;
  major_words : float;
  promoted_words : float;
  minor_collections : int;
  major_collections : int;
}

(* An open span holds the clocks and GC counters captured at [enter];
   [exit] turns the deltas into a [record]. Minor words come from
   [Gc.minor_words] — the exact domain-local allocation pointer — because
   [Gc.quick_stat]'s counters only refresh at collections on OCaml 5;
   the collection-granular fields still come from [quick_stat]. *)
type frame = {
  f_label : string;
  f_depth : int;
  f_wall : float;
  f_cpu : float;
  f_minor : float;
  f_gc : Gc.stat;
}

type recorder = {
  r_origin : float;
  mutable stack : frame list;
  mutable rev_records : record list;
}

type t = Disabled | Enabled of recorder

let disabled = Disabled
let enabled = function Disabled -> false | Enabled _ -> true

let recorder () =
  Enabled { r_origin = Unix.gettimeofday (); stack = []; rev_records = [] }

let enter t label =
  match t with
  | Disabled -> ()
  | Enabled r ->
      let frame =
        {
          f_label = label;
          f_depth = List.length r.stack;
          f_wall = Unix.gettimeofday ();
          f_cpu = Sys.time ();
          f_minor = Gc.minor_words ();
          f_gc = Gc.quick_stat ();
        }
      in
      r.stack <- frame :: r.stack

let us_of_span f = int_of_float (f *. 1e6)

let exit t =
  match t with
  | Disabled -> ()
  | Enabled r -> (
      match r.stack with
      | [] -> invalid_arg "Span.exit: no open span"
      | frame :: rest ->
          let wall = Unix.gettimeofday () in
          let cpu = Sys.time () in
          let minor = Gc.minor_words () in
          let gc = Gc.quick_stat () in
          let g0 = frame.f_gc in
          r.stack <- rest;
          r.rev_records <-
            {
              label = frame.f_label;
              depth = frame.f_depth;
              start_us = us_of_span (frame.f_wall -. r.r_origin);
              dur_us = us_of_span (wall -. frame.f_wall);
              cpu_us = us_of_span (cpu -. frame.f_cpu);
              minor_words = minor -. frame.f_minor;
              major_words = gc.Gc.major_words -. g0.Gc.major_words;
              promoted_words = gc.Gc.promoted_words -. g0.Gc.promoted_words;
              minor_collections =
                gc.Gc.minor_collections - g0.Gc.minor_collections;
              major_collections =
                gc.Gc.major_collections - g0.Gc.major_collections;
            }
            :: r.rev_records)

let with_ t label f =
  match t with
  | Disabled -> f ()
  | Enabled _ ->
      enter t label;
      Fun.protect ~finally:(fun () -> exit t) f

let records = function
  | Disabled -> []
  | Enabled r -> List.rev r.rev_records

let record_to_json r =
  Json.Obj
    [
      ("label", Json.String r.label);
      ("depth", Json.Int r.depth);
      ("start_us", Json.Int r.start_us);
      ("dur_us", Json.Int r.dur_us);
      ("cpu_us", Json.Int r.cpu_us);
      ("minor_words", Json.Float r.minor_words);
      ("major_words", Json.Float r.major_words);
      ("promoted_words", Json.Float r.promoted_words);
      ("minor_collections", Json.Int r.minor_collections);
      ("major_collections", Json.Int r.major_collections);
    ]
