let counter name = Obs.Telemetry.Counter.make ~deterministic:false ~domain:"serve" name

let requests = counter "requests"
let responses_ok = counter "responses_ok"
let responses_error = counter "responses_error"
let overloaded = counter "overloaded"
let expired = counter "expired"
let batches = counter "batches"
let dispatch_failures = counter "dispatch_failures"
let connections = counter "connections"
let rejected_connections = counter "rejected_connections"
let bad_frames = counter "bad_frames"
let encode_failures = counter "encode_failures"
let loop_failures = counter "loop_failures"
let cache_hits = counter "cache_hits"
let cache_misses = counter "cache_misses"
let cache_evictions = counter "cache_evictions"
let cache_invalidations = counter "cache_invalidations"

(* Streaming re-localization: per-target session lifecycle and the
   fold/retire traffic through the live-update wire path. *)
let sessions_opened = counter "sessions_opened"
let sessions_evicted = counter "sessions_evicted"
let folds = counter "folds"
let retires = counter "retires"
let invalidations = counter "invalidations"

(* The shard front's domain.  [shard_refan] is the failover invariant
   the e2e suite asserts: every request pending on a lost backend is
   either re-fanned onto the surviving ring or answered with an error. *)
let shard_counter name = Obs.Telemetry.Counter.make ~deterministic:false ~domain:"shard" name

let shard_requests = shard_counter "requests"
let shard_fanout = shard_counter "fanout"
let shard_refan = shard_counter "refan"
let shard_backend_lost = shard_counter "backend_lost"
let shard_replies = shard_counter "replies"
let shard_errors = shard_counter "errors"
let shard_orphan_replies = shard_counter "orphan_replies"
let shard_bad_frames = shard_counter "bad_frames"
let shard_connections = shard_counter "connections"
let shard_rejected_connections = shard_counter "rejected_connections"
let shard_loop_failures = shard_counter "loop_failures"
let shard_encode_failures = shard_counter "encode_failures"

let h_batch_size = Obs.Telemetry.Histogram.make ~unit_:"req" ~domain:"serve" "batch_size"
let h_queue_depth = Obs.Telemetry.Histogram.make ~unit_:"req" ~domain:"serve" "queue_depth"
let h_request_s = Obs.Telemetry.Histogram.make ~unit_:"s" ~domain:"serve" "request_s"
