open Kernel

type stats = {
  hits : int;
  misses : int;
  entries : int;
  edges : int;
  spilled : int;
  snapshots : int;
  restores : int;
}

let zero_stats =
  {
    hits = 0;
    misses = 0;
    entries = 0;
    edges = 0;
    spilled = 0;
    snapshots = 0;
    restores = 0;
  }

let merge_stats a b =
  {
    hits = a.hits + b.hits;
    misses = a.misses + b.misses;
    entries = a.entries + b.entries;
    edges = a.edges + b.edges;
    spilled = a.spilled + b.spilled;
    snapshots = a.snapshots + b.snapshots;
    restores = a.restores + b.restores;
  }

let hit_rate s =
  let total = s.hits + s.misses in
  if total = 0 then 0. else float_of_int s.hits /. float_of_int total

let pp_stats ppf s =
  Format.fprintf ppf "%d/%d subtrees from table (%.0f%%), %d entries" s.hits
    (s.hits + s.misses) (100. *. hit_rate s) s.entries;
  if s.spilled > 0 then Format.fprintf ppf " (+%d spilled)" s.spilled;
  if s.snapshots > 0 then
    Format.fprintf ppf "; %d arena snapshots, %d restores" s.snapshots
      s.restores

(* The memo key. [k_alive] and [k_left] are NOT derivable from the
   fingerprint: the adversary may "crash" an already-halted process,
   spending budget (and shrinking its victim pool) without changing any
   engine-visible state — two such histories share a fingerprint but face
   different futures. The same holds for the omitter sets and the
   remaining omission budget: they gate the legal choices below a node,
   and at leaves the declared omitters decide the verdict. [k_depth] pins
   the remaining horizon (hence the round, for [Ok] states). A poisoned
   ([Error]) subtree is engine-free — its leaves depend only on the choice
   tree below and the error — so it memoises on the structured error
   instead of a fingerprint.

   The fields are mutable only so one probe key can be refreshed in place
   per lookup (mutability is invisible to [compare] and [Hashtbl.hash]);
   stored keys are immutable clones taken before the subtree is
   explored. *)
type 'fp state_key = K_ok of 'fp | K_err of Sim.Engine.step_error

type 'fp key = {
  mutable k_depth : int;
  mutable k_left : int;
  mutable k_alive : Bitset.t;
  mutable k_send : Bitset.t;
  mutable k_recv : Bitset.t;
  mutable k_omit_left : int;
  mutable k_state : 'fp state_key;
}

(* The generic [Hashtbl] compares keys with [compare = 0], not [( = )]: the
   runtime's total-order comparison short-circuits on physically equal
   subterms, which the arena produces constantly — snapshot/restore shares
   state records across branches, so a probe against the matching stored
   key walks pointers, not structure. Keys are float-free pure data, so
   the two equalities agree on every key this table can hold.

   Its hash reads only a bounded prefix of the key, so distinct
   fingerprints can share buckets — but equality resolves every collision
   structurally, so a shallow hash costs lookups time, never soundness.
   Measured on the n = 5 sweeps here it beats [hash_param 64 128]: the
   depth/budget/alive fields plus the first few process states already
   discriminate well, and deep hashing of large algorithm states (e.g.
   [A_{t+2}]'s) dominated the win. *)
type 'fp t = {
  tbl : ('fp key, Exhaustive.result) Hashtbl.t;
  cap : int option;
  spill_dir : string option;
  mutable spill : Spill.t option;
  mutable spilled : int;
  mutable hits : int;
  mutable misses : int;
  probe_fp : unit -> 'fp;
  copy_fp : 'fp -> 'fp;
  probe : 'fp key;
  probe_ok : 'fp state_key;
}

let create ?cap ?spill_dir ~probe ~copy () =
  let probe_ok = K_ok (probe ()) in
  {
    tbl = Hashtbl.create 1024;
    cap;
    spill_dir;
    spill = None;
    spilled = 0;
    hits = 0;
    misses = 0;
    probe_fp = probe;
    copy_fp = copy;
    probe =
      {
        k_depth = 0;
        k_left = 0;
        k_alive = Bitset.empty;
        k_send = Bitset.empty;
        k_recv = Bitset.empty;
        k_omit_left = 0;
        k_state = probe_ok;
      };
    probe_ok;
  }

(* Disk overflow: once the in-memory table reaches [cap], new entries
   spill to an append-only store instead (or, with no [spill_dir], are
   simply dropped — bounded memory, fewer future hits). Marshalled with
   [No_sharing] the bytes of equal keys are equal, since the table's
   equality is structural; fragments and keys are pure data (see the
   fingerprint and {!Algorithm.S} docs). *)
let marshal v = Marshal.to_string v [ Marshal.No_sharing ]

let spill_find t key =
  match t.spill with
  | None -> None
  | Some s ->
      Option.map
        (fun b -> (Marshal.from_string b 0 : Exhaustive.result))
        (Spill.find s ~key:(marshal key))

(* Refresh the probe in place — [probe_fp] re-reads the arena into its
   reusable fingerprint, so a warm lookup allocates nothing. Leaves
   memoise on the fingerprint and the declared omitter sets only: with no
   choices left, the remaining budgets and victim pool cannot influence
   the run, but the omitter sets still decide the verdict. Collapsing the
   budgets buys hits across histories that differ only in budget spent on
   already-halted victims. *)
let set_probe t ~depth (node : Menu.node) err =
  let p = t.probe in
  (match err with
  | None ->
      ignore (t.probe_fp () : _);
      p.k_state <- t.probe_ok
  | Some e -> p.k_state <- K_err e);
  if depth = 0 then (
    p.k_depth <- 0;
    p.k_left <- 0;
    p.k_alive <- Bitset.empty;
    p.k_omit_left <- 0)
  else (
    p.k_depth <- depth;
    p.k_left <- node.Menu.adv.Serial.crashes_left;
    p.k_alive <- node.Menu.aliveb;
    p.k_omit_left <- node.Menu.adv.Serial.omit_left);
  p.k_send <- node.Menu.sendb;
  p.k_recv <- node.Menu.recvb

type 'fp lookup = Hit of Exhaustive.result | Miss of 'fp key

let find t ~depth node err =
  set_probe t ~depth node err;
  match
    match Hashtbl.find_opt t.tbl t.probe with
    | Some _ as hit -> hit
    | None -> spill_find t t.probe
  with
  | Some frag ->
      t.hits <- t.hits + 1;
      Hit frag
  | None ->
      t.misses <- t.misses + 1;
      (* An immutable snapshot of the probe, safe to store: taken before
         the subtree below is explored, since recursive lookups overwrite
         the probe. *)
      let p = t.probe in
      Miss
        {
          p with
          k_state =
            (match p.k_state with
            | K_ok fp -> K_ok (t.copy_fp fp)
            | K_err _ as e -> e);
        }

let add t key frag =
  match t.cap with
  | Some cap when Hashtbl.length t.tbl >= cap -> (
      match t.spill_dir with
      | Some dir ->
          let s =
            match t.spill with
            | Some s -> s
            | None ->
                let s = Spill.create ~dir in
                t.spill <- Some s;
                s
          in
          Spill.add s ~key:(marshal key) ~data:(marshal frag);
          t.spilled <- t.spilled + 1
      | None -> ())
  | _ -> Hashtbl.add t.tbl key frag

let close t = Option.iter Spill.close t.spill

let stats t =
  {
    zero_stats with
    hits = t.hits;
    misses = t.misses;
    entries = Hashtbl.length t.tbl;
    spilled = t.spilled;
  }
