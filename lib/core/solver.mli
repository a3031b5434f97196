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

    Cells are exact {!Geo.Region.t} values, and every split is one
    {!Geo.Region.inter} and one {!Geo.Region.diff}. *)

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

val create : ?config:config -> world:Geo.Region.t -> unit -> t
(** Fresh arrangement with a single zero-weight cell covering the world. *)

val add : ?max_cells:int -> ?tessellate:(Constr.t -> Geo.Region.t) -> t -> Constr.t -> t
(** Fold one constraint in (default cell cap 384).  [tessellate] converts
    the constraint's analytic shape to the polygonal region used for
    clipping; it defaults to {!Constr.region_of_shape} and exists so
    callers can plug in a memoized discretization (see
    {!Geom_cache.region_for}).  It runs at most once per constraint.
    @raise Invalid_argument on an arrangement {!add_all_pruned} pruned. *)

val add_all : ?max_cells:int -> ?tessellate:(Constr.t -> Geo.Region.t) -> t -> Constr.t list -> t

val add_all_pruned :
  ?max_cells:int ->
  ?tessellate:(Constr.t -> Geo.Region.t) ->
  area_threshold_km2:float ->
  weight_band:float ->
  t ->
  Constr.t list ->
  t
(** Fold a {e complete} constraint list for one known {!solve}, dropping
    the cells that solve can never select (branch and bound).

    {b Bound.}  After constraint [k], let [R] be the summed weight of
    constraints [k+1..n]; weights are non-negative, so no point gains more
    than [R] from there on.  With the cells sorted as {!solve} sorts them,
    let [L] be the weight at which the heaviest exact (non-fused) cells
    first cover [area_threshold_km2] (or [-infinity]), and let
    [cut = min L (weight_band *. top)].  Every cell with
    [weight +. R +. 1e-9 < cut] is dropped; [B] is the largest
    [weight +. R +. 1e-9] over all dropped cells.  The [1e-9] is
    {!solve}'s own band slack; it absorbs the rounding gap between [R] and
    a descendant's own sum.

    {b Certificate.}  On the final cells, {!solve}'s selection rule must
    show [B < weight_band *. top -. 1e-9], and the selected cells heavier
    than [B] must cover [area_threshold_km2].  Then the result is exact:
    a descendant of a dropped cell weighs at most [B]; without cap fusion
    the pruned cells are the uncapped fold's cells minus those
    descendants, in the same order; so every missing cell sorts after
    every kept cell heavier than [B], none is a band cell, and {!solve}'s
    fill stops before it reaches one.  The check runs after every
    simplification, so simplification drift cannot make it lie.  When it
    fails, the constraints are folded again with {!add_all} from the same
    base ([solver.prune_fallbacks]), and only that pass reaches the audit
    log.

    {b Contract.}  If the pruned fold fuses no cells, its estimate is
    bit-identical to [add_all ~max_cells:max_int]'s.  If [add_all]'s
    capped fold fuses no cells, the estimate is bit-identical to
    [add_all]'s: the pruned fold holds a subset of its cells at every step,
    so it never fuses either.

    {b Guards.}  An arrangement that dropped cells is final: {!add} on it
    raises [Invalid_argument], and {!solve} re-checks the certificate with
    the settings it is given and raises [Invalid_argument] if they break
    it.  {!cells}, {!cell_count} and {!max_weight} see only the kept
    cells.  An arrangement from which nothing was dropped is exactly
    {!add_all}'s.  Streaming callers, whose later constraints are unknown,
    use {!add_all}. *)

val cell_count : t -> int
(** Cells in the arrangement; after {!add_all_pruned}, the kept cells
    only. *)

val max_weight : t -> float

val cells : t -> (Geo.Region.t * float) list
(** All cells with their weights, heaviest first.  After
    {!add_all_pruned} these are the kept cells only, which no longer
    partition the world. *)

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
    never empty.
    @raise Invalid_argument on an arrangement {!add_all_pruned} pruned when
    these settings break its certificate. *)

(** Persistent per-target solver state for streaming re-localization.

    A session holds the pristine world arrangement ([base]), the current
    arrangement, and the chronological log of folded constraints, with the
    solve/tessellation knobs pinned at creation.  {!Session.fold}
    intersects only the {e new} constraints into the existing arrangement
    — the underlying solver is persistent, so this performs literally the
    same [add] calls a from-scratch batch replay of the log would, which
    makes prefix parity (incremental ≡ batch at every feed prefix)
    structural.  {!Session.retire} drops evidence at
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
