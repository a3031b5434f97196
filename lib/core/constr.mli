(** Location constraints (paper §2).

    A constraint is a region of the plane where the target is believed to be
    (positive) or believed not to be (negative), with a weight expressing
    the strength of that belief.  Shapes carry symbolic metadata (disk,
    ring) so the solver can classify cell/constraint relationships with
    cheap arithmetic before falling back to polygon clipping. *)

type shape =
  | Disk of { center : Geo.Point.t; radius_km : float }
      (** Positive constraint from a pin-point landmark. *)
  | Ring of { center : Geo.Point.t; r_inner_km : float; r_outer_km : float }
      (** Annulus: the paper's combined [r_L <= dist <= R_L] constraint from
          a primary landmark. *)
  | Rough of Geo.Region.t
      (** Anything else: dilated/eroded secondary-landmark constraints,
          land masks, WHOIS hints. *)

type polarity = Positive | Negative

type t = {
  shape : shape;
  polarity : polarity;
  weight : float;
  source : string;  (** Human-readable provenance, e.g. ["rtt L7 (12.3ms)"]. *)
  epoch : int;
      (** Measurement generation this evidence belongs to.  Smart
          constructors emit epoch 0; streaming sessions re-tag batches with
          {!with_epoch} so old evidence can be retired as a feed ages. *)
}

val positive_disk : center:Geo.Point.t -> radius_km:float -> weight:float -> source:string -> t
val ring : center:Geo.Point.t -> r_inner_km:float -> r_outer_km:float -> weight:float -> source:string -> t
val negative_disk : center:Geo.Point.t -> radius_km:float -> weight:float -> source:string -> t
val positive_region : Geo.Region.t -> weight:float -> source:string -> t
val negative_region : Geo.Region.t -> weight:float -> source:string -> t

val with_epoch : int -> t -> t
(** Tag a constraint with a measurement epoch (pure copy). *)

val region_of_shape : ?segments:int -> shape -> Geo.Region.t
(** Materialize the shape as a region (default 64-gon circles). *)

val of_rtt :
  ?segments:int ->
  ?negative_weight_factor:float ->
  calibration:Calibration.t ->
  landmark_position:[ `Point of Geo.Point.t | `Region of Geo.Region.t ] ->
  adjusted_rtt_ms:float ->
  weight:float ->
  source:string ->
  unit ->
  t list
(** The paper's measurement-to-constraint translation.
    [negative_weight_factor] (default 1.0) below 1.0 splits the annulus
    into a full-weight positive disk and a discounted negative disk —
    negative latency information is aggressive, and the discount is how
    the weighted framework expresses that lower trust.  For a pin-point
    (primary) landmark this is a single [Ring] between [r_L(d)] and
    [R_L(d)] (or a [Disk] when [r_L = 0]).  For a region-valued (secondary)
    landmark the positive constraint is the landmark region dilated by
    [R_L(d)] — the union of disks over every point the landmark may occupy —
    and the negative constraint is the intersection of [r_L(d)]-disks over
    the landmark region (eroded to the common disk), each emitted as a
    separate weighted constraint. *)

val describe : t -> string

type classification = Cell_inside | Cell_outside | Straddles
(** Relation of an axis-aligned box to the constraint's shape. *)

val classify_box : shape -> Geo.Point.t * Geo.Point.t -> classification
(** Conservative classification: [Cell_inside]/[Cell_outside] only when the
    box is provably entirely inside/outside the shape; [Straddles]
    otherwise. *)
