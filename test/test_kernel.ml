open Kernel
open Helpers

(* ------------------------------------------------------------------ *)
(* Pid                                                                 *)

let test_pid_of_int () =
  check_int "roundtrip" 3 (Pid.to_int (Pid.of_int 3));
  Alcotest.check_raises "ids are 1-based"
    (Invalid_argument "Pid.of_int: process ids are 1-based") (fun () ->
      ignore (Pid.of_int 0))

let test_pid_order () =
  check_bool "p1 < p2" true (Pid.compare (Pid.of_int 1) (Pid.of_int 2) < 0);
  check_bool "equal" true (Pid.equal (Pid.of_int 4) (Pid.of_int 4));
  check_string "pp" "p3" (Pid.to_string (Pid.of_int 3))

let test_pid_all () =
  check_int "all length" 5 (List.length (Pid.all ~n:5));
  check_int "others length" 4 (List.length (Pid.others ~n:5 (Pid.of_int 2)));
  check_bool "others excludes self" true
    (not (List.exists (Pid.equal (Pid.of_int 2)) (Pid.others ~n:5 (Pid.of_int 2))))

let test_pid_set () =
  let s = Pid.Set.of_ints [ 1; 3 ] in
  check_int "cardinal" 2 (Pid.Set.cardinal s);
  check_bool "mem" true (Pid.Set.mem (Pid.of_int 3) s);
  check_int "universe" 4 (Pid.Set.cardinal (Pid.Set.universe ~n:4));
  check_string "pp" "{p1, p3}" (Format.asprintf "%a" Pid.Set.pp s)

(* ------------------------------------------------------------------ *)
(* Value                                                               *)

let test_value_basics () =
  check_int "zero" 0 (Value.to_int Value.zero);
  check_int "one" 1 (Value.to_int Value.one);
  check_int "min" 2 (Value.to_int (Value.min (Value.of_int 2) (Value.of_int 7)));
  check_int "minimum" 1
    (Value.to_int (Value.minimum (List.map Value.of_int [ 4; 1; 9 ])));
  Alcotest.check_raises "minimum of empty"
    (Invalid_argument "Value.minimum: empty list") (fun () ->
      ignore (Value.minimum []))

let test_value_tag =
  qtest "tag/untag roundtrip"
    QCheck.(pair (int_range 1 20) (pair (int_range 1 20) (int_range 0 1000)))
    (fun (n, (i, raw)) ->
      let i = ((i - 1) mod n) + 1 in
      let proposer = Pid.of_int i in
      let raw', proposer' = Value.untag ~n (Value.tag ~proposer ~n raw) in
      raw' = raw && Pid.equal proposer' proposer)

let test_value_tag_order =
  qtest "tag preserves raw order"
    QCheck.(pair (int_range 2 10) (pair (int_range 0 50) (int_range 0 50)))
    (fun (n, (a, b)) ->
      let ta = Value.tag ~proposer:(Pid.of_int 2) ~n a in
      let tb = Value.tag ~proposer:(Pid.of_int 1) ~n b in
      if a < b then Value.compare ta tb < 0
      else if a > b then Value.compare ta tb > 0
      else (* same raw: proposer id breaks the tie *) Value.compare ta tb > 0)

(* ------------------------------------------------------------------ *)
(* Round                                                               *)

let test_round_basics () =
  check_int "first" 1 (Round.to_int Round.first);
  check_int "succ" 4 (Round.to_int (Round.succ (Round.of_int 3)));
  check_bool "pred of 1" true (Round.pred Round.first = None);
  check_int "pred" 2
    (Round.to_int (Option.get (Round.pred (Round.of_int 3))));
  check_int "add" 7 (Round.to_int (Round.add (Round.of_int 3) 4));
  check_int "diff" 2 (Round.diff (Round.of_int 5) (Round.of_int 3));
  Alcotest.check_raises "of_int 0"
    (Invalid_argument "Round.of_int: rounds are numbered from 1") (fun () ->
      ignore (Round.of_int 0))

let test_round_iter () =
  let visited = ref [] in
  Round.iter_up_to (Round.of_int 4) ~f:(fun r ->
      visited := Round.to_int r :: !visited);
  Alcotest.(check (list int)) "in order" [ 1; 2; 3; 4 ] (List.rev !visited)

(* ------------------------------------------------------------------ *)
(* Config                                                              *)

let test_config_make () =
  let c = Config.make ~n:5 ~t:2 in
  check_int "n" 5 (Config.n c);
  check_int "t" 2 (Config.t c);
  check_int "quorum" 3 (Config.quorum c);
  check_int "majority" 3 (Config.majority c);
  check_bool "indulgent regime" true (Config.has_majority_resilience c);
  check_bool "not third" false (Config.has_third_resilience c)

let test_config_invalid () =
  List.iter
    (fun (n, t) ->
      match Config.make ~n ~t with
      | (_ : Config.t) -> Alcotest.fail "should reject"
      | exception Invalid_argument _ -> ())
    [ (0, 0); (3, 3); (3, 4); (2, -1) ]

let test_config_regimes =
  qtest "regime predicates match arithmetic"
    QCheck.(pair (int_range 1 30) (int_range 0 29))
    (fun (n, t) ->
      QCheck.assume (t < n);
      let c = Config.make ~n ~t in
      Config.has_majority_resilience c = (0 < t && 2 * t < n)
      && Config.has_third_resilience c = (3 * t < n)
      && Config.quorum c = n - t
      && Config.majority c > n / 2
      && Config.majority c <= (n / 2) + 1)

(* ------------------------------------------------------------------ *)
(* Rng                                                                 *)

let test_rng_determinism () =
  let a = Rng.create ~seed:99 and b = Rng.create ~seed:99 in
  let xs = List.init 20 (fun _ -> Rng.int a 1000) in
  let ys = List.init 20 (fun _ -> Rng.int b 1000) in
  Alcotest.(check (list int)) "same seed, same stream" xs ys

let test_rng_bounds =
  qtest "int within bounds"
    QCheck.(pair int (int_range 1 10000))
    (fun (seed, bound) ->
      let g = Rng.create ~seed in
      let x = Rng.int g bound in
      0 <= x && x < bound)

let test_rng_int_in =
  qtest "int_in within range"
    QCheck.(triple int (int_range (-50) 50) (int_range 0 100))
    (fun (seed, lo, span) ->
      let g = Rng.create ~seed in
      let x = Rng.int_in g lo (lo + span) in
      lo <= x && x <= lo + span)

let test_rng_shuffle =
  qtest "shuffle is a permutation"
    QCheck.(pair int (list small_int))
    (fun (seed, xs) ->
      let g = Rng.create ~seed in
      List.sort compare (Rng.shuffle g xs) = List.sort compare xs)

let test_rng_sample =
  qtest "sample size and membership"
    QCheck.(triple int (int_range 0 20) (list small_int))
    (fun (seed, k, xs) ->
      let g = Rng.create ~seed in
      let s = Rng.sample g k xs in
      List.length s = min k (List.length xs)
      && List.for_all (fun x -> List.mem x xs) s)

let test_rng_copy_and_split () =
  let g = Rng.create ~seed:5 in
  let g' = Rng.copy g in
  check_int "copy continues identically" (Rng.int g 1000) (Rng.int g' 1000);
  let h = Rng.split g in
  (* The split stream differs from the parent's continuation (with
     overwhelming probability over 10 draws). *)
  let xs = List.init 10 (fun _ -> Rng.int g 1000000) in
  let ys = List.init 10 (fun _ -> Rng.int h 1000000) in
  check_bool "split diverges" true (xs <> ys)

let test_rng_float =
  qtest "float within bound"
    QCheck.(pair int (int_range 1 1000))
    (fun (seed, bound) ->
      let g = Rng.create ~seed in
      let x = Rng.float g (float_of_int bound) in
      0.0 <= x && x < float_of_int bound)

let test_rng_subset =
  qtest "subset is a sublist"
    QCheck.(pair int (list small_int))
    (fun (seed, xs) ->
      let g = Rng.create ~seed in
      List.for_all (fun x -> List.mem x xs) (Rng.subset g xs))

let test_rng_pick () =
  let g = Rng.create ~seed:1 in
  check_bool "pick member" true (List.mem (Rng.pick g [ 1; 2; 3 ]) [ 1; 2; 3 ]);
  check_bool "pick_opt empty" true (Rng.pick_opt g ([] : int list) = None)

(* ------------------------------------------------------------------ *)
(* Listx                                                               *)

let test_listx_count () =
  check_int "count" 2 (Listx.count (fun x -> x > 1) [ 0; 2; 3 ])

let test_listx_occurrences () =
  Alcotest.(check (list (pair int int)))
    "multiset" [ (1, 2); (2, 1) ]
    (Listx.occurrences ~compare [ 1; 2; 1 ])

let test_listx_most_frequent () =
  check_bool "most frequent" true
    (Listx.most_frequent ~compare [ 3; 1; 3; 2 ] = Some (3, 2));
  check_bool "empty" true (Listx.most_frequent ~compare ([] : int list) = None)

let test_listx_all_equal () =
  check_bool "equal" true (Listx.all_equal ~equal:Int.equal [ 2; 2; 2 ]);
  check_bool "not equal" false (Listx.all_equal ~equal:Int.equal [ 2; 3 ]);
  check_bool "empty" true (Listx.all_equal ~equal:Int.equal [])

let test_listx_take_drop () =
  Alcotest.(check (list int)) "take" [ 1; 2 ] (Listx.take 2 [ 1; 2; 3 ]);
  Alcotest.(check (list int)) "take over" [ 1 ] (Listx.take 5 [ 1 ]);
  Alcotest.(check (list int)) "drop" [ 3 ] (Listx.drop 2 [ 1; 2; 3 ]);
  Alcotest.(check (list int)) "range" [ 2; 3; 4 ] (Listx.range 2 4);
  Alcotest.(check (list int)) "empty range" [] (Listx.range 3 2)

let test_listx_subsets =
  qtest "subsets count is 2^n" QCheck.(int_range 0 10) (fun n ->
      let xs = List.init n Fun.id in
      List.length (Listx.subsets xs) = 1 lsl n)

let test_listx_prefixes () =
  Alcotest.(check (list (list int)))
    "prefixes"
    [ []; [ 1 ]; [ 1; 2 ] ]
    (Listx.prefixes [ 1; 2 ])

let test_listx_cartesian () =
  check_int "cartesian size" 6
    (List.length (Listx.cartesian [ 1; 2 ] [ 'a'; 'b'; 'c' ]))

let test_listx_max_by () =
  check_bool "max_by" true
    (Listx.max_by ~compare ~f:String.length [ "ab"; "a"; "abc" ] = Some "abc");
  check_bool "empty" true
    (Listx.max_by ~compare ~f:Fun.id ([] : int list) = None)

(* ------------------------------------------------------------------ *)
(* Bitset                                                              *)

let of_pids ps = List.fold_left (fun s p -> Bitset.add p s) Bitset.empty ps

let test_bitset_basics () =
  let open Bitset in
  check_bool "empty" true (is_empty empty);
  let s = of_pids [ 3; 1; 5 ] in
  check_int "cardinal" 3 (cardinal s);
  check_bool "mem 3" true (mem 3 s);
  check_bool "mem 2" false (mem 2 s);
  check_bool "not empty" false (is_empty s);
  check_bool "to_list" true (to_list s = [ 1; 3; 5 ]);
  check_bool "order-free" true (equal s (of_pids [ 5; 3; 1 ]));
  check_string "pp" "{1,3,5}" (Format.asprintf "%a" pp s)

(* [add] is idempotent and commutative, and returns its argument itself
   for a member: a pass that learns nothing builds no set. *)
let test_bitset_algebra () =
  let open Bitset in
  let s = of_pids [ 1; 2; 3 ] in
  check_bool "idempotent" true (equal (add 2 s) s);
  check_bool "member: physically unchanged" true (add 2 s == s);
  check_bool "commutative" true (equal (add 4 (add 7 s)) (add 7 (add 4 s)));
  check_bool "monotone" true
    (List.for_all (fun p -> mem p (add 9 s)) [ 1; 2; 3; 9 ]);
  check_bool "not equal" false (equal s (add 4 s))

let test_bitset_pid_set_round_trip () =
  let s = Pid.Set.of_ints [ 2; 4; 5 ] in
  check_bool "round-trip" true
    (Bitset.to_list (Bitset.of_pid_set s)
    = List.map Pid.to_int (Pid.Set.elements s));
  check_int "cardinal agrees" (Pid.Set.cardinal s)
    (Bitset.cardinal (Bitset.of_pid_set s));
  check_bool "empty" true (Bitset.is_empty (Bitset.of_pid_set Pid.Set.empty))

let test_bitset_bounds () =
  let raises f = try f () |> ignore; false with Invalid_argument _ -> true in
  check_bool "0 rejected" true (raises (fun () -> Bitset.add 0 Bitset.empty));
  check_bool "0 never a member" false (Bitset.mem 0 (of_pids [ 1; 100 ]));
  check_bool "negative never a member" false (Bitset.mem (-1) (of_pids [ 1 ]))

(* ------------------------------------------------------------------ *)
(* Bits: popcount / ctz against naive loops                            *)

let naive_popcount x =
  let rec go acc i =
    if i = Sys.int_size then acc
    else go (acc + ((x lsr i) land 1)) (i + 1)
  in
  go 0 0

let naive_ctz x =
  if x = 0 then Sys.int_size
  else
    let rec go i = if (x lsr i) land 1 = 1 then i else go (i + 1) in
    go 0

let test_bits_units () =
  check_int "popcount 0" 0 (Bits.popcount 0);
  check_int "popcount 1" 1 (Bits.popcount 1);
  check_int "popcount -1 is every bit" Sys.int_size (Bits.popcount (-1));
  check_int "popcount max_int" (Sys.int_size - 1) (Bits.popcount max_int);
  check_int "ctz 0 is word size" Sys.int_size (Bits.ctz 0);
  check_int "ctz 1" 0 (Bits.ctz 1);
  check_int "ctz min_int" (Sys.int_size - 1) (Bits.ctz min_int)

let test_bits_popcount =
  qtest "popcount matches the naive loop" QCheck.int (fun x ->
      Bits.popcount x = naive_popcount x)

let test_bits_ctz =
  qtest "ctz matches the naive loop" QCheck.int (fun x ->
      Bits.ctz x = naive_ctz x)

(* ------------------------------------------------------------------ *)
(* Bitset across the immediate/array boundary (pid 62 | 63)            *)

(* Member lists drawn below one of four ceilings, so every property run
   mixes sets that stay immediate with sets that cross into the array
   form, and lists with repeats. *)
let pid_lists =
  QCheck.make
    ~print:QCheck.Print.(list int)
    QCheck.Gen.(
      oneofl [ 62; 63; 64; 200 ] >>= fun hi ->
      list_size (0 -- 30) (int_range 1 hi))

let test_bitset_any_n =
  qtest ~count:300 "pids 1..200: one set per member list"
    QCheck.(pair pid_lists int)
    (fun (ps, seed) ->
      let s = of_pids ps in
      let sorted = List.sort_uniq compare ps in
      let shuffled =
        let st = Random.State.make [| seed |] in
        List.map snd
          (List.sort compare
             (List.map (fun p -> (Random.State.bits st, p)) (ps @ List.rev ps)))
      in
      let s' = of_pids shuffled in
      Bitset.to_list s = sorted
      && List.for_all
           (fun p -> Bitset.mem p s = List.mem p sorted)
           (List.init 202 Fun.id)
      && Bitset.cardinal s = List.length sorted
      && Bitset.is_empty s = (sorted = [])
      && s = s'
      && Bitset.equal s s'
      && Hashtbl.hash s = Hashtbl.hash s'
      && Marshal.to_string s [] = Marshal.to_string s' [])

let test_big_large_n () =
  List.iter
    (fun n ->
      let open Bitset in
      let f = of_pid_set (Pid.Set.universe ~n) in
      check_int (Printf.sprintf "full cardinal n=%d" n) n (cardinal f);
      check_bool "low mem" true (mem 1 f);
      check_bool "high mem" true (mem n f);
      check_bool "n+1 not mem" false (mem (n + 1) f);
      check_bool "to_list ascending" true
        (to_list f = List.init n (fun i -> i + 1));
      check_bool "descending build equal" true
        (equal f (of_pids (List.init n (fun i -> n - i))));
      check_bool "top pid alone" true (to_list (add n empty) = [ n ]);
      check_bool "re-adding the top pid is the identity" true (add n f == f))
    [ 63; 64; 100; 1_000 ]

(* The form of a set is a function of its members: sets built along
   different paths across the boundary are structurally equal, hash alike
   and marshal alike — what Mc.Dedup keys rely on. *)
let test_big_canonical () =
  let open Bitset in
  let a = of_pids [ 62; 1; 63; 200 ] and b = of_pids [ 200; 63; 62; 1; 63 ] in
  check_bool "structural" true (a = b);
  check_bool "hash" true (Hashtbl.hash a = Hashtbl.hash b);
  check_bool "compare" true (compare a b = 0);
  check_bool "below the boundary differs from above" false
    (equal (of_pids [ 62 ]) (of_pids [ 62; 63 ]));
  check_bool "word boundary" true
    (to_list (of_pids [ 124; 125; 62; 63 ]) = [ 62; 63; 124; 125 ]);
  check_bool "empty is unique" true (empty = of_pid_set Pid.Set.empty)

let () =
  Alcotest.run "kernel"
    [
      ( "pid",
        [
          Alcotest.test_case "of_int" `Quick test_pid_of_int;
          Alcotest.test_case "order" `Quick test_pid_order;
          Alcotest.test_case "all/others" `Quick test_pid_all;
          Alcotest.test_case "sets" `Quick test_pid_set;
        ] );
      ( "bitset",
        [
          Alcotest.test_case "basics" `Quick test_bitset_basics;
          Alcotest.test_case "algebra" `Quick test_bitset_algebra;
          Alcotest.test_case "pid-set round-trip" `Quick
            test_bitset_pid_set_round_trip;
          Alcotest.test_case "bounds" `Quick test_bitset_bounds;
        ] );
      ( "bits",
        [
          Alcotest.test_case "units" `Quick test_bits_units;
          test_bits_popcount;
          test_bits_ctz;
        ] );
      ( "bitset-big",
        [
          test_bitset_any_n;
          Alcotest.test_case "large n" `Quick test_big_large_n;
          Alcotest.test_case "canonical" `Quick test_big_canonical;
        ] );
      ( "value",
        [
          Alcotest.test_case "basics" `Quick test_value_basics;
          test_value_tag;
          test_value_tag_order;
        ] );
      ( "round",
        [
          Alcotest.test_case "basics" `Quick test_round_basics;
          Alcotest.test_case "iter" `Quick test_round_iter;
        ] );
      ( "config",
        [
          Alcotest.test_case "make" `Quick test_config_make;
          Alcotest.test_case "invalid" `Quick test_config_invalid;
          test_config_regimes;
        ] );
      ( "rng",
        [
          Alcotest.test_case "determinism" `Quick test_rng_determinism;
          Alcotest.test_case "copy/split" `Quick test_rng_copy_and_split;
          Alcotest.test_case "pick" `Quick test_rng_pick;
          test_rng_bounds;
          test_rng_int_in;
          test_rng_float;
          test_rng_subset;
          test_rng_shuffle;
          test_rng_sample;
        ] );
      ( "listx",
        [
          Alcotest.test_case "count" `Quick test_listx_count;
          Alcotest.test_case "occurrences" `Quick test_listx_occurrences;
          Alcotest.test_case "most_frequent" `Quick test_listx_most_frequent;
          Alcotest.test_case "all_equal" `Quick test_listx_all_equal;
          Alcotest.test_case "take/drop/range" `Quick test_listx_take_drop;
          Alcotest.test_case "prefixes" `Quick test_listx_prefixes;
          Alcotest.test_case "cartesian" `Quick test_listx_cartesian;
          Alcotest.test_case "max_by" `Quick test_listx_max_by;
          test_listx_subsets;
        ] );
    ]
