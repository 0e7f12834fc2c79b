(* Branch-light bit counting for Bitset's words, immediate or boxed.

   OCaml has no portable popcount primitive and its 63-bit int literals
   cannot hold the 64-bit SWAR masks (0x5555... overflows max_int), so the
   population count goes through a 16-bit lookup table instead: four loads
   and three adds per word, no data-dependent branches, and the table is a
   one-time 64 KiB [Bytes.t] built at module initialisation. *)

let table =
  Bytes.init 65536 (fun i ->
      let rec go acc v = if v = 0 then acc else go (acc + 1) (v land (v - 1)) in
      Char.chr (go 0 i))

let[@inline] chunk x = Char.code (Bytes.unsafe_get table (x land 0xffff))

let[@inline] popcount x =
  chunk x + chunk (x lsr 16) + chunk (x lsr 32) + chunk (x lsr 48)

(* [x land (-x)] isolates the lowest set bit; subtracting one turns it into
   a mask of the zeros below it, whose population count is the index. *)
let[@inline] ctz x = if x = 0 then Sys.int_size else popcount ((x land -x) - 1)
