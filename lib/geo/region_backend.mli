(** Concrete region backends and the spec used to select one.

    Two implementations of {!Region_intf.S}:

    - {b exact}: {!Region.t} verbatim — Bezier/polygon clipping, the
      default, bit-identical to the historical solver.
    - {b hybrid}: exact polygons whose piece-pair clips are prefiltered
      by a zero-margin bounding-box test (near-exact skip) and a coarse
      occupancy bitmask on a world-aligned lattice (approximate skip) —
      generalizing the solver's historical ad-hoc [boxes_meet] check.

    Hybrid needs world geometry, so configs carry a {!spec} and
    {!instantiate} builds the first-class module per target once the
    world region is known. *)

module Exact : Region_intf.S with type t = Region.t

val exact : Region_intf.packed
(** {!Exact}, packed. *)

val hybrid : cells:int -> world:Region.t -> Region_intf.packed
(** Prefiltered-exact backend; the occupancy lattice pitch is the world
    span divided by [cells].
    @raise Invalid_argument when [world] is empty. *)

(** {2 Selection} *)

type spec = Exact | Hybrid of { cells : int }

val default : spec
(** [Exact]. *)

val default_hybrid_cells : int

val instantiate : spec -> world:Region.t -> Region_intf.packed
(** Build the backend for one target's world region.  [Exact] ignores
    [world]. *)

val spec_of_string : string -> (spec, string) result
(** Parse ["exact"], ["hybrid"] or ["hybrid:CELLS"] (cells in 4..4096). *)

val spec_to_string : spec -> string
(** Inverse of {!spec_of_string}; defaults render without the size
    suffix. *)

(** {2 Hybrid prefilter tallies}

    Process-wide counts of piece-pair decisions made by the hybrid
    prefilter, one count per pair: clipped exactly, skipped on disjoint
    bboxes, or skipped on disjoint occupancy.  Kept as plain atomics (not
    telemetry counters) so benches can read them with telemetry off. *)

type hybrid_stats = { exact_clips : int; skipped_bbox : int; skipped_grid : int }

val hybrid_stats : unit -> hybrid_stats
val reset_hybrid_stats : unit -> unit
