(** The weighted constraint solver (paper §2, §2.4).

    The solver maintains an {e arrangement}: a partition of the world region
    into cells, each carrying the total weight of the constraints it
    satisfies.  Every constraint splits each straddled cell in two —
    the part that satisfies it and the part that does not — and adds its
    weight to the satisfying side (for a negative constraint, the
    complement side).  This realizes the paper's

    [beta_i = (∩ positives) \ (∪ negatives)]

    in its robust, weighted form: with perfect constraints the top-weight
    cell {e is} that boolean combination, while a wrong constraint merely
    demotes the true cell by one weight step instead of collapsing the
    estimate to the empty set.

    The final estimate is the union of cells in decreasing weight order
    until the accumulated area exceeds a threshold ("taking the union of
    all regions, sorted by weight, such that they exceed a desired size
    threshold").

    Cell counts are capped: when the arrangement grows beyond [max_cells],
    the lightest-and-smallest cells are fused into their bounding
    rectangle, carrying the minimum of their weights — which only ever
    makes the final region more conservative, never unsound.  The
    rectangle may overlap the kept cells; fused cells are tracked as
    approximate and {!solve} subtracts that overlap from the cells it
    selects, so the reported region and [area_km2] never double-count.

    The arrangement is parametric in its {e region backend}
    ({!Geo.Region_intf.S}): cells live in whatever representation the
    backend provides (exact polygons, or polygons behind the hybrid clip
    prefilter) and every geometric operation dispatches through it.  The
    default is the exact backend, which reproduces the historical solver
    bit for bit. *)

type t

type config = {
  simplify_vertex_threshold : int;
      (** Cells whose boundary exceeds this many vertices are simplified
          at creation (default 140). *)
  simplify_tolerance_km : float;
      (** Douglas–Peucker tolerance for that simplification (default 2.0
          km — far below geolocalization scales). *)
  harden : Harden.config option;
      (** When set, {!solve} applies the consensus trim: weight-band cells
          whose centroid is farther than {!Harden.config.trim_band_km} from
          the top-weight cell's centroid are excluded from the estimate.
          [None] (the default) reproduces the historical solver bit for
          bit. *)
}

val default_config : config
(** The historical constants: threshold 140, tolerance 2 km, no
    hardening. *)

val create :
  ?config:config -> ?backend:Geo.Region_intf.packed -> world:Geo.Region.t -> unit -> t
(** Fresh arrangement with a single zero-weight cell covering the world.
    [backend] (default {!Geo.Region_backend.exact}) fixes the region
    representation for the arrangement's lifetime; the world and every
    tessellated constraint are imported through it. *)

val add : ?max_cells:int -> ?tessellate:(Constr.t -> Geo.Region.t) -> t -> Constr.t -> t
(** Fold one constraint in (default cell cap 384).  [tessellate] converts
    the constraint's analytic shape to the (exact-world) polygonal region
    used for clipping; it defaults to {!Constr.region_of_shape} and
    exists so callers can plug in a memoized discretization (see
    {!Geom_cache.region_for}).  The result is imported into the
    arrangement's backend once per constraint. *)

val add_all : ?max_cells:int -> ?tessellate:(Constr.t -> Geo.Region.t) -> t -> Constr.t list -> t

val cell_count : t -> int
val max_weight : t -> float

val backend_name : t -> string
(** Name of the region backend this arrangement dispatches through. *)

val cells : t -> (Geo.Region.t * float) list
(** All cells with their weights, heaviest first. *)

type estimate = {
  region : Geo.Region.t;      (** Union of the selected top-weight cells. *)
  weight : float;             (** Weight of the heaviest selected cell. *)
  point : Geo.Point.t;        (** Weighted centroid point estimate. *)
  area_km2 : float;
  cells_used : int;
}

val solve : ?area_threshold_km2:float -> ?weight_band:float -> t -> estimate
(** Extract the estimate (default threshold 5000 km^2, about a 40-mile
    disk).  Cells within [weight_band] (default 1.0 = exact ties only) of
    the top weight are always included — with a handful of erroneous
    constraints the true cell typically sits just below the top — then
    cells are taken in decreasing weight until the union reaches the area
    threshold.  At least one cell is always taken, so the estimate is
    never empty. *)

(** Persistent per-target solver state for streaming re-localization.

    A session holds the pristine world arrangement ([base]), the current
    arrangement, and the chronological log of folded constraints, with the
    solve/tessellation knobs pinned at creation.  {!Session.fold}
    intersects only the {e new} constraints into the existing arrangement
    — the underlying solver is persistent, so this performs literally the
    same [add] calls a from-scratch batch replay of the log would, which
    makes prefix parity (incremental ≡ batch at every feed prefix)
    structural on the exact backend.  {!Session.retire} drops evidence at
    or below an epoch and re-solves from the surviving log suffix
    (correct-first decay). *)
module Session : sig
  type solver := t
  type t

  val create :
    ?max_cells:int ->
    ?tessellate:(Constr.t -> Geo.Region.t) ->
    ?area_threshold_km2:float ->
    ?weight_band:float ->
    log:Constr.t list ->
    solver ->
    t
  (** Open a session over a pristine arrangement with the chronological
      [log] already added, pinning the add/solve knobs every subsequent
      fold and retire will use.  The initial [log] is not a fold: {!folds}
      starts at zero.  The pristine arrangement is what {!retire} rebuilds
      from. *)

  val fold : t -> Constr.t list -> estimate
  (** Intersect new constraints into the arrangement and re-extract the
      estimate.  O(delta) solver adds, vs O(log) for a batch recompute. *)

  val retire : t -> upto_epoch:int -> estimate
  (** Drop every logged constraint with [epoch <= upto_epoch], rebuild the
      arrangement from [base] over the surviving log (original order), and
      re-extract the estimate.  The region can only widen or stay. *)

  val estimate : t -> estimate
  (** Solve the current arrangement without mutating anything. *)

  val log : t -> Constr.t list
  (** Chronological fold log (survivors only, after any retire). *)

  val live_constraints : t -> int
  val folds : t -> int
  val retires : t -> int
  val cells_live : t -> int
end
