(** Per-context memo cache for constraint region geometry.

    Localizing a batch of targets against one deployment re-tessellates
    nearly identical annuli and disks over and over: the radii come from
    the same per-landmark calibrations and move only with the target RTT.
    This cache quantizes radii into {!quantum_km} buckets and memoizes the
    origin-centered polygon for each (shape, snapped radii, segments)
    combination, translating it to the landmark's projected position on
    use.

    Soundness: radii snap so the satisfying side of the constraint only
    grows (positive shapes dilate by at most one quantum, negative shapes
    shrink), so the quantized constraint is at least as conservative as the
    exact one.  Determinism: the polygon is a pure function of the
    quantized key, so results do not depend on cache state, call order, or
    which domain inserted an entry — the property
    {!Pipeline.localize_batch} relies on for its bit-identical guarantee.

    The cache is safe to share across domains and is built to scale with
    them: every domain keeps a private lock-free tier in [Domain.DLS], so
    the steady-state hot path (all radius buckets already seen) takes no
    mutex and writes no shared memory at all.  A mutex-guarded shared tier
    behind it seeds newly spawned worker domains; tessellation happens
    outside the lock.  Hit/miss tallies are sharded per domain to keep
    concurrent lookups off each other's cache lines. *)

type t

val create : unit -> t

val quantum_km : float
(** Radius bucket width (0.25 km — far below geolocalization scales and
    below the chord error of the 64-segment discretization itself). *)

val region_for : ?segments:int -> t -> Constr.t -> Geo.Region.t
(** Memoized counterpart of {!Constr.region_of_shape} (same default of 64
    segments), choosing the snap direction from the constraint's polarity.
    [Rough] shapes pass through untouched. *)

val stats : t -> int * int
(** [(hits, misses)] so far; for benchmarks and tests. *)
