type t = { count : int; min : int; max : int; mean : float }

let of_list = function
  | [] -> None
  | first :: rest as all ->
      let count = List.length all in
      let min, max, sum =
        List.fold_left
          (fun (mn, mx, sum) x -> (Stdlib.min mn x, Stdlib.max mx x, sum + x))
          (first, first, first)
          rest
      in
      Some { count; min; max; mean = float_of_int sum /. float_of_int count }

let pp ppf s =
  Format.fprintf ppf "n=%d min=%d max=%d mean=%.2f" s.count s.min s.max s.mean

let messages_of_metrics metrics =
  Obs.Metrics.find_counter metrics "sim.messages_sent"

let bytes_of_metrics metrics = Obs.Metrics.find_counter metrics "sim.bytes_sent"
