let count pred xs = List.fold_left (fun acc x -> if pred x then acc + 1 else acc) 0 xs

let occurrences ~compare xs =
  let sorted = List.sort compare xs in
  let rec group acc = function
    | [] -> List.rev acc
    | x :: rest ->
        let same, others = List.partition (fun y -> compare x y = 0) rest in
        group ((x, 1 + List.length same) :: acc) others
  in
  group [] sorted

let most_frequent ~compare xs =
  match occurrences ~compare xs with
  | [] -> None
  | occ ->
      let best (xv, xc) (yv, yc) = if yc > xc then (yv, yc) else (xv, xc) in
      Some (List.fold_left best (List.hd occ) (List.tl occ))

let all_equal ~equal = function
  | [] -> true
  | x :: rest -> List.for_all (equal x) rest

let rec take k = function
  | [] -> []
  | _ when k <= 0 -> []
  | x :: rest -> x :: take (k - 1) rest

let rec drop k = function
  | xs when k <= 0 -> xs
  | [] -> []
  | _ :: rest -> drop (k - 1) rest

let range lo hi = if lo > hi then [] else List.init (hi - lo + 1) (fun i -> lo + i)

let cartesian xs ys = List.concat_map (fun x -> List.map (fun y -> (x, y)) ys) xs

let subsets xs =
  List.fold_right (fun x acc -> List.map (fun s -> x :: s) acc @ acc) xs [ [] ]

let prefixes xs =
  let rec go acc rev_prefix = function
    | [] -> List.rev acc
    | x :: rest ->
        let rev_prefix = x :: rev_prefix in
        go (List.rev rev_prefix :: acc) rev_prefix rest
  in
  go [ [] ] [] xs

let max_by ~compare ~f = function
  | [] -> None
  | x :: rest ->
      let better acc y = if compare (f y) (f acc) > 0 then y else acc in
      Some (List.fold_left better x rest)
