(** The transposition table: exact state-space reduction as a table
    policy of the one depth-first search ({!Distrib}).

    The search re-explores subtrees that are reachable from {e identical
    global states} via different choice prefixes — e.g. crashing [p1] in
    round 1 versus round 2 after it has already halted, or any two prefixes
    whose victims' messages were all delivered anyway. The table memoises
    whole subtree {e results} keyed on

    [(remaining depth, crash budget, alive victim set, declared
      send/receive-omitter sets, omission budget,
      {!Sim.Engine.Make.Arena.fingerprint})]

    so each distinct key's subtree is evaluated once. Stored fragments keep
    their witness/violation/crashed choice lists and their valency's
    bivalent path relative to the subtree root; on a hit the search
    prepends the current path, which keeps every field of the final
    {!Exhaustive.result} — aggregates, orders of the [violations]/[crashed]
    lists, the max witness, the valency — {e bit-identical} to the
    unreduced sweep. Only [distinct_runs] differs: it counts leaves
    actually evaluated, while [runs] still counts every run of the full
    enumeration.

    The reduction is {e exact}, not probabilistic: keys are compared with
    full structural equality (the hash only routes to a bucket), so a
    collision can never alias two different states. Budget and alive set
    are part of the key because they are not derivable from the engine
    state — crashing an already-halted process spends budget invisibly.

    Each first-round subtree gets a fresh table, so every executor and
    every [--jobs] agrees on every field including [distinct_runs] and
    {!stats}. *)

type stats = {
  hits : int;  (** subtrees answered from the table *)
  misses : int;  (** subtrees computed and stored *)
  entries : int;  (** keys stored, summed over the per-subtree tables *)
  edges : int;  (** engine rounds actually stepped *)
  spilled : int;
      (** entries written to the disk overflow ({!Spill}) after the
          in-memory table reached its cap; 0 for uncapped sweeps *)
  snapshots : int;
      (** arena branch-point snapshots taken
          ({!Sim.Engine.Make.Arena.save}), summed over subtrees *)
  restores : int;  (** arena rewinds ({!Sim.Engine.Make.Arena.restore}) *)
}

val zero_stats : stats
val merge_stats : stats -> stats -> stats
val pp_stats : Format.formatter -> stats -> unit

type 'fp t
(** One table, for one first-round subtree on one domain. ['fp] is the
    arena's fingerprint type. *)

val create :
  ?cap:int ->
  ?spill_dir:string ->
  probe:(unit -> 'fp) ->
  copy:('fp -> 'fp) ->
  unit ->
  'fp t
(** [probe ()] refreshes the arena's reusable probe fingerprint and
    returns it (always the same value); [copy] deep-copies one for
    storage.

    Memory bounding (default-off, never affects the result): [cap] bounds
    the in-memory entries; once reached, new entries go to a {!Spill}
    store under [spill_dir] — or, with no [spill_dir], are dropped, which
    only costs future hits. Spilled lookups still count as hits, so
    {!stats} stay comparable across caps. *)

type 'fp key

type 'fp lookup =
  | Hit of Exhaustive.result  (** the stored fragment *)
  | Miss of 'fp key  (** the key to {!add} the fragment under *)

val find :
  'fp t ->
  depth:int ->
  Menu.node ->
  Sim.Engine.step_error option ->
  'fp lookup
(** Look up the subtree [depth] rounds above the horizon at [node], in
    the arena's current state, or poisoned by the given error. A miss
    returns an owned copy of the key, taken before the subtree is
    explored. *)

val add : 'fp t -> 'fp key -> Exhaustive.result -> unit
val close : 'fp t -> unit
(** Delete the spill store, if any. *)

val stats : 'fp t -> stats
(** [hits], [misses], [entries] and [spilled]; the search fills in the
    arena's counts. *)
