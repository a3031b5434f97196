(** Boolean operations on simple polygons.

    This is the engine behind {!Region}: Octant chains hundreds of
    intersections, differences and unions while building its weighted
    constraint arrangement (paper §2, §2.4).

    The implementation is Greiner–Hormann clipping whose crossing sweep
    is output-sensitive: box tests skip every edge pair too far apart for
    the segment test to answer, so a traversal costs about its boundary
    sizes plus the pairs near the other boundary, not their product.  When
    the operands' boxes are that far apart as a whole, {!inter} and {!diff}
    answer from the boxes without a traversal.  It has three safeguards:

    - a Sutherland–Hodgman fast path when both operands are convex;
    - containment special-casing when the boundaries do not intersect,
      including hole elimination for differences: when the clip polygon lies
      strictly inside the subject, the subject is split in two along a line
      through the clip's centroid so that every output polygon stays simple
      and hole-free;
    - deterministic epsilon-perturbation retries when a degenerate
      configuration (vertex on edge, collinear overlapping edges, equal
      intersection parameters) is detected.  Perturbations are of the order
      of 1e-9 km and are irrelevant at geolocalization scales.

    All results are lists of disjoint-interior simple polygons (possibly
    empty).  Slivers with area below 1e-9 are dropped. *)

exception Degenerate
(** Raised internally when a degenerate configuration survives all
    perturbation retries; callers of this module never see it unless the
    inputs are pathological (e.g. zero-area polygons). *)

val inter : Polygon.t -> Polygon.t -> Polygon.t list
(** Intersection [a ∩ b]. *)

val union : Polygon.t -> Polygon.t -> Polygon.t list
(** Union [a ∪ b].  When the operands are disjoint the result is both
    operands unchanged. *)

val diff : Polygon.t -> Polygon.t -> Polygon.t list
(** Difference [a \ b], hole-free by construction. *)

val convex_inter : Polygon.t -> Polygon.t -> Polygon.t option
(** Sutherland–Hodgman fast path; exposed for tests.  Both inputs must be
    convex; the result, when non-degenerate, is their convex intersection. *)
