open Kernel

type orbit = {
  ones : Pid.Set.t;
  proposals : Value.t Pid.Map.t;
  multiplicity : int;
}

(* Exact small binomial: the running product of [i] consecutive integers is
   divisible by [i!], so every intermediate division is integral. *)
let choose n k =
  if k < 0 || k > n then 0
  else
    let k = min k (n - k) in
    let rec go acc i = if i > k then acc else go (acc * (n - k + i) / i) (i + 1) in
    go 1 1

let orbits config =
  let n = Config.n config in
  List.init (n + 1) (fun k ->
      let ones = Pid.Set.of_list (List.init k (fun i -> Pid.of_int (i + 1))) in
      {
        ones;
        proposals = Sim.Runner.binary_proposals config ~ones;
        multiplicity = choose n k;
      })

let scale m (r : Exhaustive.result) =
  {
    r with
    Exhaustive.runs = r.Exhaustive.runs * m;
    undecided_runs = r.Exhaustive.undecided_runs * m;
  }
