(** The [serve] telemetry domain.

    One site per service-level event, all registered against the existing
    {!Obs.Telemetry} machinery so [--telemetry=json] on the daemon exports
    them alongside the pipeline's own counters.  Every counter here is
    declared scheduling-dependent ([~deterministic:false]): arrival order,
    batch boundaries, and cache hits all depend on client interleaving, so
    none of them may enter the cross-[--jobs] determinism signature.

    Counters: [requests] (localize frames admitted), [responses_ok],
    [responses_error], [overloaded] (load shed at a full queue),
    [expired] (deadline passed before — or during — compute), [batches]
    (micro-batches dispatched), [dispatch_failures] (solver exceptions
    caught in {!Batcher} dispatch, every affected item answered with an
    error instead of wedging, plus reply callbacks that raised on the
    batcher or session thread), [connections] (accepted),
    [rejected_connections] (closed at accept because the live-connection
    cap was reached), [bad_frames] (answered with a decode error),
    [encode_failures] (a reply the codec could not encode, answered with
    a fallback error), [loop_failures] (unexpected exceptions caught on
    the event-loop thread; each costs at most one connection), and the
    cache tallies mirrored by {!Lru.Sharded}.

    Histograms: [h_batch_size] (requests per dispatched batch),
    [h_queue_depth] (depth observed at admit), [h_request_s]
    (admit-to-reply latency). *)

val requests : Obs.Telemetry.Counter.t
val responses_ok : Obs.Telemetry.Counter.t
val responses_error : Obs.Telemetry.Counter.t
val overloaded : Obs.Telemetry.Counter.t
val expired : Obs.Telemetry.Counter.t
val batches : Obs.Telemetry.Counter.t
val dispatch_failures : Obs.Telemetry.Counter.t
val connections : Obs.Telemetry.Counter.t
val rejected_connections : Obs.Telemetry.Counter.t
val bad_frames : Obs.Telemetry.Counter.t
val encode_failures : Obs.Telemetry.Counter.t
val loop_failures : Obs.Telemetry.Counter.t
val cache_hits : Obs.Telemetry.Counter.t
val cache_misses : Obs.Telemetry.Counter.t
val cache_evictions : Obs.Telemetry.Counter.t
val cache_invalidations : Obs.Telemetry.Counter.t

(** {2 Streaming re-localization}

    Per-target session lifecycle through the live-update wire path, all
    [~deterministic:false]: [sessions_opened] (base vectors that opened
    or reset a session), [sessions_evicted] (idle sessions dropped by
    the LRU session store), [folds] (delta frames folded into a live
    arrangement), [retires] (epoch-decay re-solves), [invalidations]
    (update-triggered result-cache invalidations — the count of times a
    session's state moved past its base observation's cached reply;
    [cache_invalidations] above is the LRU-side mirror, one per
    {!Lru.invalidate_key} call). *)

val sessions_opened : Obs.Telemetry.Counter.t
val sessions_evicted : Obs.Telemetry.Counter.t
val folds : Obs.Telemetry.Counter.t
val retires : Obs.Telemetry.Counter.t
val invalidations : Obs.Telemetry.Counter.t

(** {2 The [shard] domain}

    Service-level events of the {!Shard} front, also
    [~deterministic:false]: [shard_requests] (localize frames admitted
    at the front), [shard_fanout] (request sends to a backend, re-fans
    included), [shard_refan] (pending requests re-routed onto the
    surviving ring after a backend loss), [shard_backend_lost]
    (backend connections declared dead), [shard_replies] (backend
    replies forwarded to a client), [shard_errors] (per-request error
    replies synthesized by the front — routing-exhausted, draining, or
    no backend available), [shard_orphan_replies] (backend replies whose
    sequence number no longer has a pending request), plus the front's
    own transport tallies mirroring the serve domain. *)

val shard_requests : Obs.Telemetry.Counter.t
val shard_fanout : Obs.Telemetry.Counter.t
val shard_refan : Obs.Telemetry.Counter.t
val shard_backend_lost : Obs.Telemetry.Counter.t
val shard_replies : Obs.Telemetry.Counter.t
val shard_errors : Obs.Telemetry.Counter.t
val shard_orphan_replies : Obs.Telemetry.Counter.t
val shard_bad_frames : Obs.Telemetry.Counter.t
val shard_connections : Obs.Telemetry.Counter.t
val shard_rejected_connections : Obs.Telemetry.Counter.t
val shard_loop_failures : Obs.Telemetry.Counter.t
val shard_encode_failures : Obs.Telemetry.Counter.t
val h_batch_size : Obs.Telemetry.Histogram.t
val h_queue_depth : Obs.Telemetry.Histogram.t
val h_request_s : Obs.Telemetry.Histogram.t
