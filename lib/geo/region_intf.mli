(** The region-backend signature; see the implementation file for the
    full contract discussion.  Consumers dispatch through a first-class
    [(module S)] instead of calling {!Region} directly, which is what
    makes the exact and hybrid representations interchangeable. *)

module type S = sig
  type t

  val name : string
  val empty : t
  val is_empty : t -> bool

  val of_region : Region.t -> t
  (** Import an exact region; the identity for the exact backend. *)

  val to_region : t -> Region.t
  (** Export to the exact representation. *)

  val pieces : t -> Polygon.t list
  val inter : t -> t -> t
  val union : t -> t -> t

  val diff : t -> t -> t
  (** [diff a b] is [a] minus [b], matching {!Region.diff}. *)

  val area : t -> float
  val contains : t -> Point.t -> bool

  val centroid : t -> Point.t
  (** @raise Invalid_argument on an empty region. *)

  val bounding_box : t -> (Point.t * Point.t) option
  val vertex_count : t -> int

  val simplify : tolerance:float -> t -> t
end

type 'r backend = (module S with type t = 'r)
(** A backend with its representation type exposed, for polymorphic
    helpers. *)

type packed = (module S)
(** A backend with its representation abstracted, for configs. *)
