(** Telemetry for the localization pipeline.

    Octant's cost lives in chains of hundreds of polygon boolean operations
    and weighted-cell solves; this module is the visibility layer over
    them: counters, log-bucketed latency histograms, nestable spans, and a
    per-target constraint audit log, all safe to record from every domain
    of the batch pool ({!Parallel}).

    {2 Recording model}

    All recording is gated on one global flag ({!enable} / {!disable},
    default disabled).  When disabled, every record operation is a single
    atomic load and branch — the no-op sink — so instrumented code costs
    nothing measurable.  Instrumentation sites create their counters at
    module initialization and call {!Counter.incr} & co. unconditionally.

    {2 Determinism contract}

    A counter increments exactly once per logical event no matter which
    domain performs the work, so for events whose count is a pure function
    of the input (constraints added, cells split, clip operations, ...)
    the aggregate value is identical at every [--jobs] setting.  Counters
    whose count depends on scheduling (e.g. cache misses, where racing
    domains may both miss the same key) are declared with
    [~deterministic:false] and excluded from {!deterministic_signature},
    which is the comparable form of the contract.  Span {e counts} are
    deterministic under the same condition provided no span is open in the
    caller when work fans out across domains (worker domains start with an
    empty span stack); span {e durations} never are. *)

val enable : unit -> unit
val disable : unit -> unit
val is_enabled : unit -> bool

val now_s : unit -> float
(** Seconds on the monotonic wall clock that spans are timed with; only
    differences are meaningful.  Unlike [Sys.time] (process CPU time) it
    does not over-report while other domains run, and unlike
    [Unix.gettimeofday] it never steps.  Reading it records nothing. *)

val reset : unit -> unit
(** Zero every counter, histogram, and span aggregate.  Not safe to call
    concurrently with recording. *)

module Counter : sig
  type t

  val make : ?deterministic:bool -> domain:string -> string -> t
  (** [make ~domain name] registers a counter (e.g. [~domain:"solver"
      "cells_split"]).  Increments are sharded over per-domain atomic
      slots, so concurrent recording does not contend.  [deterministic]
      (default [true]) declares whether the aggregate value is independent
      of scheduling; see the determinism contract above. *)

  val incr : t -> unit
  val add : t -> int -> unit
  val value : t -> int
  (** Sum over all shards. *)
end

module Histogram : sig
  type t

  val make : ?unit_:string -> domain:string -> string -> t
  (** Log-bucketed histogram: one bucket per binary order of magnitude of
      the observed value.  [unit_] (default ["s"]) is documentation-only
      and surfaces in exports. *)

  val observe : t -> float -> unit
  val count : t -> int
  val sum : t -> float
end

val with_span : string -> (unit -> 'a) -> 'a
(** [with_span name f] runs [f], timing it into the span aggregate named
    by the current domain's nesting path ([parent/child/...]).  Spans
    nest within one domain; a worker domain starts a fresh root.
    Exceptions propagate; the span still closes.

    Besides wall time, each span records the GC words its domain allocated
    while it was open ([Gc.counters] deltas, minor and major) — the signal
    that exposes allocation-driven multicore stalls stage by stage.  Like
    durations, word counts of nested spans are also charged to their
    ancestors. *)

val padded_atomics : int -> int Atomic.t array
(** [n] fresh atomics allocated with spacing so that no two share a cache
    line (best effort — OCaml 5.1 has no [Atomic.make_contended]).  For
    domain-sharded counters: an unpadded [Array.init n (fun _ ->
    Atomic.make 0)] packs the boxes 4–8 per line and concurrent shards
    false-share. *)

module Audit : sig
  (** Per-target constraint audit: one entry per constraint folded into
      the solver, recording whether it actually discriminated. *)

  type entry = {
    source : string;      (** Constraint provenance, e.g. ["rtt L7 (12.3ms)"]. *)
    weight : float;
    polarity : string;    (** ["positive"] or ["negative"]. *)
    cells_before : int;   (** Arrangement size before the constraint. *)
    cells_after : int;
    splits : int;         (** Cells the constraint boundary cut. *)
    dropped : int;        (** Cells that degenerated to nothing. *)
    shrank : bool;        (** It cut or excluded geometry (splits or drops
                              > 0), as opposed to weighting every cell
                              uniformly. *)
  }

  val collecting : unit -> bool
  (** True when an {!collect} is active on this domain. *)

  val record : entry -> unit
  (** No-op unless {!collecting}. *)

  val collect : (unit -> 'a) -> 'a * entry list
  (** Arm the collector on this domain for the duration of the callback;
      returns entries in recording order.  Nests (the inner collector
      shadows the outer); independent per domain, so concurrent batch
      workers cannot interleave logs. *)
end

(** {2 Snapshots and export} *)

type counter_view = {
  c_domain : string;
  c_name : string;
  c_value : int;
  c_deterministic : bool;
}

type span_view = {
  s_path : string;   (** Slash-separated nesting path. *)
  s_count : int;
  s_total_s : float;
  s_max_s : float;
  s_minor_words : int;  (** GC minor words allocated inside the span. *)
  s_major_words : int;  (** GC major-heap words allocated inside the span. *)
}

type histogram_view = {
  h_domain : string;
  h_name : string;
  h_unit : string;
  h_count : int;
  h_sum : float;
  h_buckets : (float * int) list; (** (bucket lower edge, count), nonzero only. *)
}

type snapshot = {
  counters : counter_view list;   (** Sorted by (domain, name); zeros omitted. *)
  spans : span_view list;         (** Sorted by path; merged across domains. *)
  histograms : histogram_view list;
}

val snapshot : unit -> snapshot

val total_events : snapshot -> int
(** Sum of every counter value, span count, and histogram count — zero iff
    nothing was recorded (the disabled-sink assertion). *)

val deterministic_signature : snapshot -> (string * int) list
(** The values that must be identical across [--jobs] settings:
    deterministic counters and span counts.  Compare with [=]. *)

val quantile : histogram_view -> float -> float
(** [quantile h q] estimates the [q]-quantile ([0 <= q <= 1]) of the
    observations behind [h] from its log buckets: the upper edge of the
    bucket holding the ceil(q*count)-th observation (a conservative
    overestimate, never more than 2x the true value by construction of
    the binary buckets).  Returns 0 for an empty histogram.  The serving
    layer reports request-latency p50/p99 through this. *)

val to_json : snapshot -> string
val pp_tree : Format.formatter -> snapshot -> unit
