(** The region-backend signature.

    The paper makes location estimates first-class {e regions} precisely so
    the representation can evolve independently of the constraint logic.
    This signature is the contract every representation must honour; the
    solver and the pipeline dispatch through a first-class module of this
    type instead of calling {!Region} directly.

    Implementations (see {!Region_backend}):

    - {b exact} — {!Region}'s Bezier/polygon clipping.  [of_region] and
      [to_region] are the identity, so results are bit-identical to the
      pre-refactor solver.
    - {b hybrid} — exact polygons behind a bbox + coarse-occupancy
      prefilter that skips clip calls whose operands cannot (or almost
      certainly do not) meet.

    [of_region]/[to_region] convert at the boundary with the exact world:
    constraint tessellation comes in as {!Region.t}, estimates go out as
    {!Region.t}. *)

module type S = sig
  type t

  val name : string
  (** Stable identifier ("exact", "hybrid") used in logs,
      benches, and CLI round-trips. *)

  val empty : t
  val is_empty : t -> bool

  val of_region : Region.t -> t
  (** Import an exact region.  Called once per tessellated constraint and
      once for the world cell; the identity for the exact backend. *)

  val to_region : t -> Region.t
  (** Export to the exact representation (for estimates, serialization,
      rendering). *)

  val pieces : t -> Polygon.t list
  (** The exact-world pieces of [to_region], without materializing the
      intermediate region when the backend can do better. *)

  val inter : t -> t -> t
  val union : t -> t -> t

  val diff : t -> t -> t
  (** [diff a b] is [a] minus [b], matching {!Region.diff}'s argument
      order. *)

  val area : t -> float
  val contains : t -> Point.t -> bool

  val centroid : t -> Point.t
  (** Area-weighted centroid.
      @raise Invalid_argument on an empty region. *)

  val bounding_box : t -> (Point.t * Point.t) option
  val vertex_count : t -> int

  val simplify : tolerance:float -> t -> t
  (** Reduce boundary complexity (Douglas–Peucker at [tolerance] km). *)
end

type 'r backend = (module S with type t = 'r)
(** A backend whose representation type is exposed — what the solver's
    polymorphic helpers take. *)

type packed = (module S)
(** A backend with its representation abstracted — what flows through
    configs and across module boundaries. *)
