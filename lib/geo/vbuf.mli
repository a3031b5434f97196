(** Reusable flat vertex buffers for the clipping kernels.

    A buffer holds a ring as two unboxed [float array]s plus a live count,
    so the halfplane-clip inner loops ({!Clip}) run without allocating a
    single heap block per vertex.  Buffers are recycled through a
    per-domain free list ([Domain.DLS]), which keeps the batch engine's
    worker domains from sharing (and contending on) scratch memory.
    Systhreads of one domain share its list; its head is updated by
    compare-and-set, so they never hold the same buffer.

    The representation is deliberately transparent: kernels index
    [xs]/[ys] directly up to [n].  Only the clipping layer should depend
    on this module. *)

type t = {
  mutable xs : float array;
  mutable ys : float array;
  mutable n : int;  (** Live vertex count; [xs]/[ys] are valid on [0, n). *)
}

val create : int -> t
(** Fresh buffer with the given initial capacity (minimum 8). *)

val clear : t -> unit
val length : t -> int

val reserve : t -> int -> unit
(** Ensure capacity for at least the given total vertex count, preserving
    live contents. *)

val push : t -> float -> float -> unit
(** Append a vertex, growing geometrically if needed. *)

val load_points : t -> Point.t array -> unit
(** Replace the contents with the given ring. *)

val to_points : t -> Point.t array
(** Materialize the live vertices as a fresh point array. *)

val with_pair : (t -> t -> 'a) -> 'a
(** Run [f] with two scratch buffers from the calling domain's pool; the
    buffers are returned to the pool afterwards (also on exceptions).
    Reentrant, and safe from several systhreads of one domain: nested or
    concurrent calls get distinct buffers. *)

val with_one : (t -> 'a) -> 'a
(** {!with_pair} with a single buffer. *)
