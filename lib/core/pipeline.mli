(** The full Octant pipeline.

    Wires the pieces together the way the paper describes:

    + {b Prepare} (per deployment): landmark heights from the
      inter-landmark RTT matrix (§2.2), then per-landmark latency-distance
      calibration on height-adjusted RTTs (§2.1).
    + {b Localize} (per target): estimate the target height; translate each
      landmark's RTT into a weighted annulus constraint; translate each
      traceroute into piecewise constraints anchored at undns-resolved or
      latency-localized last-hop routers used as secondary landmarks
      (§2.3); add geographic constraints (§2.5); run the weighted solver
      (§2.4) and extract the estimated location region.

    Every mechanism can be switched off independently, which is how the
    ablation benches isolate each section's contribution. *)

type config = {
  segments : int;               (** Circle discretization for constraint shapes. *)
  weight_policy : Weight.policy;
  cutoff_percentile : float;    (** Calibration cutoff rho (default 75). *)
  sentinel_ms : float;          (** Calibration sentinel latency (default 400). *)
  max_cells : int;              (** Solver arrangement cap (default 256). *)
  area_threshold_km2 : float;   (** Estimate extraction threshold (default 30000). *)
  world_margin_km : float;      (** World half-size beyond the landmark span (default 1500). *)
  use_heights : bool;           (** §2.2 on/off. *)
  use_negative : bool;          (** Negative latency constraints on/off. *)
  use_piecewise : bool;         (** §2.3 on/off. *)
  piecewise_max_routers : int;  (** Router localizations per target (default 3). *)
  router_hint_radius_km : float;(** Pin radius for undns-resolved routers (default 40). *)
  use_land_mask : bool;         (** §2.5 oceans on/off. *)
  land_mask_weight : float;
  whois_weight : float;         (** §2.5 registry hint weight; 0 disables. *)
  whois_radius_km : float;
  negative_weight_factor : float;
      (** Discount on negative latency constraints (default 0.22); 1.0
          keeps the paper's single-annulus form. *)
  weight_band : float;          (** Estimate extraction band (default 0.93):
                                    cells this close to the top weight are
                                    always part of the region. *)
  sol_only : bool;              (** Ablation: speed-of-light bounds only, no
                                    calibration, no negative constraints. *)
  harden : Harden.config option;
      (** Byzantine-landmark hardening ({!Harden}): when set, each target's
          latency constraints are consistency-scored (conflicting landmarks
          down-weighted before they reach the solver) and the solver applies
          the consensus trim at estimate extraction.  [None] (the default)
          is bit-identical to the unhardened pipeline. *)
}

val default_config : config

type landmark = {
  lm_key : int;                    (** Caller's identifier (e.g. node id). *)
  lm_position : Geo.Geodesy.coord; (** Known position (primary landmark). *)
}

type hop = {
  hop_key : int;                   (** Router identity across traceroutes. *)
  hop_dns : string option;
  hop_rtt_ms : float;              (** Min RTT from the traceroute's landmark to this hop. *)
  hop_rtt_from_landmarks : (int * float) array;
      (** Optional RTTs from other landmarks to this router, as (landmark
          index, min RTT); enables latency-based router localization when
          the DNS name does not decode. *)
}

type observations = {
  target_rtt_ms : float array;
      (** Per landmark index; [<= 0] marks a missing measurement. *)
  traceroutes : hop array array;
      (** Per landmark index; [[||]] when no traceroute is available. *)
  whois_hint : Geo.Geodesy.coord option;
}

val observations_of_rtts : float array -> observations
(** Latency-only observations (no traceroutes, no registry hint). *)

type context

val prepare :
  ?config:config ->
  landmarks:landmark array ->
  inter_landmark_rtt_ms:float array array ->
  unit ->
  context
(** Heights + calibrations.  The matrix is indexed like [landmarks];
    entries [<= 0] are treated as missing.
    @raise Invalid_argument with fewer than 3 landmarks. *)

val landmark_count : context -> int
(** Size of the landmark set the context was prepared against — the
    length every observation's [target_rtt_ms] must have.  Long-lived
    holders of a context (the serving daemon) use it to validate requests
    before queueing them. *)

val with_harden : context -> Harden.config option -> context
(** Same prepared context (heights, calibrations, shared geometry cache)
    with the hardening knob replaced — preparation does not depend on it,
    so evaluation drivers can localize every target both hardened and
    unhardened against one [prepare]. *)

val landmark_heights : context -> float array
val calibration : context -> int -> Calibration.t

val pooled_calibration : context -> Calibration.t
(** Calibration pooled over all landmarks; the latency-to-distance model
    used for nodes (routers, secondary landmarks) that have no
    peer-measurement history of their own. *)

val config : context -> config

type prepared_target = {
  projection : Geo.Projection.t;  (** Plane used for this target. *)
  world : Geo.Region.t;           (** Universe cell of the arrangement. *)
  constraints : Constr.t list;    (** All constraints, heaviest first. *)
  target_height_ms : float;       (** Estimated target height (§2.2). *)
}

val prepare_target :
  ?undns:(string -> Geo.Geodesy.coord option) ->
  context ->
  observations ->
  prepared_target
(** Constraint assembly only — no solving.  Exposed so callers can inspect
    or re-weight the constraint system before solving. *)

val arrangement :
  ?undns:(string -> Geo.Geodesy.coord option) ->
  context ->
  observations ->
  prepared_target * Solver.t
(** Assembly plus the weighted arrangement, before estimate extraction.
    The arrangement is folded with {!Solver.add_all_pruned} for the
    context's own [area_threshold_km2] and [weight_band]: it holds only
    the cells that solve can select, it is final ({!Solver.add} raises),
    and {!Solver.solve} with other settings may raise.  Fold
    [prepare_target]'s constraints with {!Solver.add_all} for the whole
    arrangement (e.g. for {!Posterior.of_solver}). *)

val localize :
  ?undns:(string -> Geo.Geodesy.coord option) ->
  context ->
  observations ->
  Estimate.t
(** Localize one target: every assembled constraint is folded into one
    weighted arrangement, as the paper describes, and the estimate is
    extracted from it.
    @raise Invalid_argument if [target_rtt_ms] length mismatches the
    context, or fewer than 3 landmarks measured the target. *)

val localize_audited :
  ?undns:(string -> Geo.Geodesy.coord option) ->
  context ->
  observations ->
  Estimate.t * Obs.Telemetry.Audit.entry list
(** {!localize} plus the per-constraint audit trail: one entry per
    constraint the solver ingested, in application order, recording its
    source, weight, polarity, and whether it actually shrank the region.
    The audit list is collected only for this call's target (it is
    per-domain); telemetry need not be enabled. *)

val localize_one :
  ?undns:(string -> Geo.Geodesy.coord option) ->
  context ->
  observations ->
  (Estimate.t, string) result
(** {!localize}, but a malformed observation ([Invalid_argument]: RTT
    vector length mismatch, fewer than 3 usable RTTs) becomes [Error
    reason] instead of an exception.  Any other exception still
    propagates. *)

val localize_batch :
  ?undns:(string -> Geo.Geodesy.coord option) ->
  ?jobs:int ->
  ?chunk:int ->
  context ->
  observations array ->
  (Estimate.t, string) result array
(** Localize many targets against one prepared context on [jobs] OCaml 5
    domains (default {!Parallel.default_jobs}).  The immutable context —
    calibrations, heights, geometry cache — is shared across workers;
    results are returned in input order and are bit-identical to mapping
    {!localize_one} over the array sequentially, at every [jobs] and
    [chunk] setting ([chunk] is the work-queue granularity, forwarded to
    {!Parallel.init}; when omitted the pool picks an amortizing default of
    about eight chunks per domain).
    The only field that varies is [solve_time_s], a monotonic wall-clock
    stopwatch reading.  A target with a malformed observation yields [Error
    reason] in its slot (counted under [pipeline.batch_skipped] when
    telemetry is on) without disturbing the other targets; any other
    worker exception is re-raised after all workers drain. *)

val geometry_cache_stats : context -> int * int
(** [(hits, misses)] of the context's constraint-geometry memo cache. *)

(** Streaming re-localization (ROADMAP item 1): a persistent per-target
    session over a prepared context.

    A session pins the target's plane — projection, world region, target
    height, hardening weight scales — at creation from the base
    observation vector, then folds sparse RTT deltas into the live solver
    arrangement: O(delta) constraint adds per update instead of a full
    re-solve.  Epoch-tagged evidence can be retired ({!Session.retire}),
    re-solving from the surviving constraint log (the region can only
    widen).

    Parity contract (the safety rail): at every feed prefix,
    {!Session.estimate} is bit-identical to {!Session.replay_estimate} — a
    from-scratch batch recompute over the session's constraint log —
    because folding performs literally the same [Solver.add] sequence a
    replay would.  Property-tested, golden-pinned, and enforced end to
    end through the daemon in [test_stream.ml]. *)
module Session : sig
  type t

  type delta = {
    d_rtts : (int * float) array;
        (** Sparse new measurements as (landmark index, RTT ms).  A
            landmark may repeat across (or within) deltas: each entry is an
            independent measurement and contributes its own constraints,
            exactly like co-located landmarks do in batch. *)
    d_epoch : int;  (** Measurement generation, for {!retire}. *)
  }

  val create :
    ?undns:(string -> Geo.Geodesy.coord option) ->
    ?epoch:int ->
    context ->
    observations ->
    t * Estimate.t
  (** Open a session from a full base observation vector (epoch tag
      default 0).  Sessions fold with {!Solver.add_all}, since their later
      constraints are unknown; the returned estimate is bit-identical to
      {!localize} over the same observations whenever
      {!Solver.add_all_pruned}'s contract applies (neither fold fuses
      cells).
      @raise Invalid_argument on the same malformed observations as
      {!localize}. *)

  val fold : t -> delta -> Estimate.t
  (** Fold one delta into the arrangement and re-extract the estimate.
      Out-of-order epochs are accepted — log order is application order;
      epochs only matter to {!retire}.
      @raise Invalid_argument on an out-of-range landmark index or a
      non-positive RTT. *)

  val retire : t -> upto_epoch:int -> Estimate.t
  (** Drop all evidence with [epoch <= upto_epoch] and re-solve from the
      surviving log. *)

  val estimate : t -> Estimate.t
  (** Current estimate, no mutation. *)

  val replay_estimate : t -> Estimate.t
  (** The parity comparator: a fresh arrangement over the session's
      constraint log, solved with the same pinned knobs. *)

  val live_constraints : t -> int
  val folds : t -> int
  val retires : t -> int
  val cells_live : t -> int
  val last_epoch : t -> int

  val constraint_log : t -> Constr.t list
  (** Chronological surviving constraint log (exposed for tests and the
      stream bench). *)
end
