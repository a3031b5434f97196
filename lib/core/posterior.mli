(** Probability measure over the arrangement (paper §2.4).

    "Weights enable Octant to associate a probability measure with regions
    of space in which a node might lie."  This module turns the weighted
    cell arrangement into that measure: each cell's unnormalized density
    is [exp(weight - top_weight)] (a Gibbs weighting — one violated unit
    of constraint weight costs a factor e), and mass is density times
    area.  From it you get point queries, credible regions at any
    confidence level, and the expected position. *)

type t

val of_solver : Solver.t -> t
(** Build the measure from a solved arrangement.  It needs the whole,
    unpruned arrangement ({!Solver.add_all}): a
    {!Solver.add_all_pruned} arrangement holds only the cells the
    estimate can select, so the measure would miss the rest of the world.
    @raise Invalid_argument on an empty arrangement. *)

val density_at : t -> Geo.Point.t -> float
(** Unnormalized density of the cell containing the point (0 outside the
    world). *)

val probability_at : t -> Geo.Point.t -> float
(** Probability mass of the cell containing the point. *)

val credible_region : t -> confidence:float -> Geo.Region.t
(** Smallest union of cells (by descending density) whose total mass
    reaches [confidence] in (0, 1]. *)

val mean_point : t -> Geo.Point.t
(** Probability-weighted mean position. *)

val entropy_bits : t -> float
(** Shannon entropy of the cell distribution — a scalar "how uncertain is
    this localization" diagnostic. *)

val cells : t -> (Geo.Region.t * float) list
(** Cells with their probability masses, heaviest first. *)
