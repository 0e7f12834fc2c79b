(** Deliberately broken algorithms, as fuzz targets and containment
    fixtures. They are part of the library (not the test tree) because
    [ipi fuzz] exposes them: a campaign against a known-broken algorithm
    is how the whole find → contain → shrink loop is demonstrated and
    smoke-tested in CI. *)

(** FloodSet deciding after [t] rounds instead of [t + 1]: safe on
    failure-free runs, but a crash chain splits its decision — the
    canonical agreement-violation target. *)
module Eager_floodset : Sim.Algorithm.S

val eager_floodset : Sim.Algorithm.packed

val raising : at:int -> Sim.Algorithm.packed
(** [raising ~at] never decides and its [on_receive] raises in every round
    [>= at]; the engine contains it as {!Sim.Engine.Step_error}. *)

val raising_init : Sim.Algorithm.packed
(** Raises in [init] — before any round, outside the engine's containment
    boundary — to exercise the {!Mc.Distrib} shard backstop and the
    campaign's [Raised] outcome. *)
