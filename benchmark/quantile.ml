(* Order statistics over a handful of samples. *)

let sorted xs = Array.of_list (List.sort Float.compare xs)

let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then invalid_arg "Quantile.median: no samples"
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* First and third quartile by the "exclusive" method of Python's
   [statistics.quantiles(xs, n=4)], so the spreads printed here are the
   ones a reader recomputes from the recorded samples. *)
let quartiles xs =
  let a = sorted xs in
  let len = Array.length a in
  if len = 0 then invalid_arg "Quantile.quartiles: no samples"
  else if len = 1 then (a.(0), a.(0))
  else
    let m = len + 1 in
    let q i =
      let j = max 1 (min (len - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta))
      /. 4.
    in
    (q 1, q 3)

(* Interquartile distance as a share of the median. *)
let spread xs =
  let q1, q3 = quartiles xs in
  let m = median xs in
  if m = 0. then 0. else (q3 -. q1) /. Float.abs m
