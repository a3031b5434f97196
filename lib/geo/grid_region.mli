(** Raster (bitmap) regions: a slow, simple, robust oracle.

    The polygon-clipping engine behind {!Region} is subtle; this module
    provides an independent region representation — a boolean raster over a
    bounding box — whose boolean operations are trivially correct.  The
    property-test suite builds the same constraint systems in both
    representations and checks that areas and membership agree within raster
    resolution.  It is also handy for quick area integrals. *)

type t

val create : lo:Point.t -> hi:Point.t -> resolution:int -> (Point.t -> bool) -> t
(** [create ~lo ~hi ~resolution pred] rasterizes [pred] on a
    [resolution x resolution] lattice of cell centers over the box.
    Requires [resolution >= 1] and a non-degenerate box. *)

val of_region : lo:Point.t -> hi:Point.t -> resolution:int -> Region.t -> t

val inter : t -> t -> t
(** Cellwise AND.  Grids must share geometry.
    @raise Invalid_argument otherwise. *)

val union : t -> t -> t
val diff : t -> t -> t

val area : t -> float
(** Number of set cells times cell area. *)

val contains : t -> Point.t -> bool
(** Value of the cell containing the point; false outside the box. *)

val cell_area : t -> float

val fill_fraction : t -> float
(** Set cells over total cells. *)
