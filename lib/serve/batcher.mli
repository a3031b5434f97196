(** Micro-batching admission queue over {!Octant.Pipeline.localize_batch}.

    Callers {!submit} observations with a completion callback into a
    bounded queue; a single worker thread wakes on the first queued
    item, sleeps [batch_delay_s] to let concurrent requests coalesce,
    then drains up to [max_batch] items, dispatches them as one
    [run_batch] call over the domain pool, and calls each item's
    callback with its outcome.  Items whose deadline passed before
    dispatch are answered [Expired] without paying for a solve — and the
    deadline is re-checked {e after} compute too, so a request whose
    budget ran out during a long solve is never reported [ok].
    Audit-requesting items are computed individually through
    [run_audited] (same estimate, plus the per-constraint trail).

    A full queue rejects at {!submit} ([`Overloaded]) — load is shed at
    admission, never by silent discard, so every accepted item's
    callback runs exactly once: {!drain} computes everything still
    queued before the worker exits, an exception escaping the solver
    resolves every affected item with [Computed (Error _, [])], and a
    callback that raises is caught instead of killing the worker thread
    (both counted in {!Metrics.dispatch_failures}). *)

type t

type outcome =
  | Computed of (Octant.Estimate.t, string) result * Obs.Telemetry.Audit.entry list
      (** The audit list is empty unless the item asked for one. *)
  | Expired  (** Deadline passed while queued, or during the solve. *)

type compute = {
  run_batch :
    jobs:int option ->
    Octant.Pipeline.observations array ->
    (Octant.Estimate.t, string) result array;
      (** Must return one result per observation, in order. *)
  run_audited :
    Octant.Pipeline.observations -> Octant.Estimate.t * Obs.Telemetry.Audit.entry list;
}
(** The solver the batcher drives.  {!compute_of_ctx} is the production
    implementation; tests inject wrappers that raise or stall to pin the
    failure paths (the wedge regression and deadline-during-solve
    suites). *)

val compute_of_ctx : Octant.Pipeline.context -> compute
(** [run_batch = Pipeline.localize_batch ctx],
    [run_audited = Pipeline.localize_audited ctx]. *)

val create :
  compute:compute ->
  ?jobs:int ->
  max_queue:int ->
  max_batch:int ->
  batch_delay_s:float ->
  unit ->
  t
(** @raise Invalid_argument on [max_queue < 1], [max_batch < 1], or a
    negative delay. *)

val submit :
  t ->
  obs:Octant.Pipeline.observations ->
  ?deadline:float ->
  want_audit:bool ->
  on_done:(outcome -> unit) ->
  unit ->
  [ `Queued | `Overloaded | `Closed ]
(** [deadline] is absolute ([Unix.gettimeofday] clock).  [on_done] runs
    once, on the worker thread, for a [`Queued] item only.  A refusal
    counts in {!Metrics.overloaded}. *)

val queue_depth : t -> int

val drain : t -> unit
(** Stop admitting, compute everything still queued, join the worker.
    Idempotent. *)
