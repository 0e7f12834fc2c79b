(* Layout invariant: a set whose members are all at most [width] (62 on
   64-bit platforms) is an immediate int, bit [p - 1] standing for pid [p];
   any other set is an int array with a non-zero top word, word [w] holding
   pids [w * width + 1 .. (w + 1) * width] in its low [width] bits, so the
   immediate form is word 0 unboxed. [add] is the only constructor and no
   array is mutated after [add] returns it: the form of a set is a function
   of its members, and equal sets are structurally equal. [Obj] is confined
   to this file, behind the abstract [t]. *)
type t = Obj.t

let width = Sys.int_size - 1
let word p = (p - 1) / width
let bit p = 1 lsl ((p - 1) mod width)
let empty = Obj.repr 0
let is_empty s = Obj.is_int s && (Obj.obj s : int) = 0
let words s = if Obj.is_int s then [| (Obj.obj s : int) |] else Obj.obj s

let add p s =
  if p < 1 then invalid_arg (Printf.sprintf "Bitset.add: pid %d < 1" p);
  if Obj.is_int s && p <= width then
    let b = 1 lsl (p - 1) and bits : int = Obj.obj s in
    if bits land b <> 0 then s else Obj.repr (bits lor b)
  else
    let ws : int array = words s in
    let w = word p in
    if w < Array.length ws && ws.(w) land bit p <> 0 then s
    else begin
      let a = Array.make (Int.max (Array.length ws) (w + 1)) 0 in
      Array.blit ws 0 a 0 (Array.length ws);
      a.(w) <- a.(w) lor bit p;
      Obj.repr a
    end

let mem p s =
  if Obj.is_int s then
    p >= 1 && p <= width && (Obj.obj s : int) land (1 lsl (p - 1)) <> 0
  else
    let ws : int array = Obj.obj s in
    p >= 1 && word p < Array.length ws && ws.(word p) land bit p <> 0

let cardinal s =
  if Obj.is_int s then Bits.popcount (Obj.obj s)
  else
    Array.fold_left
      (fun acc w -> acc + Bits.popcount w)
      0 (Obj.obj s : int array)

let equal a b =
  a == b
  || (not (Obj.is_int a))
     && (not (Obj.is_int b))
     && (Obj.obj a : int array) = (Obj.obj b : int array)

let to_list s =
  let acc = ref [] in
  Array.iteri
    (fun i w ->
      let w = ref w in
      while !w <> 0 do
        acc := ((i * width) + Bits.ctz !w + 1) :: !acc;
        w := !w land (!w - 1)
      done)
    (words s);
  List.rev !acc

let of_pid_set ps = Pid.Set.fold (fun p s -> add (Pid.to_int p) s) ps empty

let pp ppf s =
  Format.fprintf ppf "{%a}"
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ",")
       Format.pp_print_int)
    (to_list s)
