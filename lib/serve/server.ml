(* The localization daemon: request handlers on a {!Reactor}.

   The loop thread decodes every frame and answers control frames, cache
   hits, decode errors and overload sheds inline.  A cache-missing
   localize goes to the {!Batcher} with a completion callback, so the
   batcher thread caches the result and sends the reply itself.
   Streamed updates run on the session thread, one at a time in arrival
   order.  Replies to pipelined requests on one connection may therefore
   arrive out of request order; clients correlate by [id]. *)

type config = {
  host : string;
  port : int;
  jobs : int option;
  max_queue : int;
  max_batch : int;
  batch_delay_s : float;
  cache_capacity : int;
  cache_shards : int;
  max_frame_bytes : int;
  max_connections : int;
  default_deadline_ms : float option;
  session_capacity : int;
}

let default_config =
  {
    host = "127.0.0.1";
    port = 0;
    jobs = None;
    max_queue = 256;
    max_batch = 64;
    batch_delay_s = 0.002;
    cache_capacity = 1024;
    cache_shards = 8;
    max_frame_bytes = 1_048_576;
    (* The reactor's select(2) is FD_SETSIZE-bound (1024 on Linux): one connection
       fd past that limit and readiness polling dies with EINVAL.  Cap
       live connections well below it, leaving headroom for the
       listener, the self-pipe, and whatever else the process has
       open. *)
    max_connections = 900;
    default_deadline_ms = None;
    session_capacity = 256;
  }

(* The session thread applies streamed updates one at a time, in arrival
   order.  It is the only thread that touches the session store and its
   base keys, so two deltas for one target can never interleave
   mid-fold.  Updates do not share the batcher thread: a one-shot read
   that recomputes there takes ~150 ms, and updates queued behind it
   would wait that long. *)
module Session_thread = struct
  type t = {
    jobs : (unit -> unit) Queue.t;
    lock : Mutex.t;
    ready : Condition.t;
    mutable closed : bool;
    mutable thread : Thread.t option;
  }

  let rec run t =
    Mutex.lock t.lock;
    while Queue.is_empty t.jobs && not t.closed do
      Condition.wait t.ready t.lock
    done;
    let job = Queue.take_opt t.jobs in
    Mutex.unlock t.lock;
    match job with
    | None -> ()
    | Some job ->
        (try job () with _ -> Obs.Telemetry.Counter.incr Metrics.dispatch_failures);
        run t

  let create () =
    let t =
      {
        jobs = Queue.create ();
        lock = Mutex.create ();
        ready = Condition.create ();
        closed = false;
        thread = None;
      }
    in
    t.thread <- Some (Thread.create run t);
    t

  let submit t job =
    Mutex.lock t.lock;
    Queue.push job t.jobs;
    Condition.signal t.ready;
    Mutex.unlock t.lock

  (* Runs what is still queued, then joins.  Idempotent. *)
  let stop t =
    Mutex.lock t.lock;
    t.closed <- true;
    Condition.broadcast t.ready;
    let thread = t.thread in
    t.thread <- None;
    Mutex.unlock t.lock;
    Option.iter Thread.join thread
end

type t = {
  cfg : config;
  ctx : Octant.Pipeline.context;
  reactor : Reactor.t;
  batcher : Batcher.t;
  cache : (string, Octant.Estimate.t) Lru.Sharded.t;
  sessions : (string, Octant.Pipeline.Session.t) Lru.t;
  session_keys : (string, string) Hashtbl.t; (* target id -> base cache key *)
  session_thread : Session_thread.t;
  (* Requests handed to the batcher or the session thread whose reply is
     not queued yet: the drain waits for this to reach 0. *)
  in_flight : int Atomic.t;
}

let port t = Reactor.port t.reactor
let cache_stats t = Lru.Sharded.stats t.cache
let queue_depth t = Batcher.queue_depth t.batcher
let live_connections t = Reactor.live_connections t.reactor
let request_shutdown t = Reactor.request_shutdown t.reactor
let wait t = Reactor.wait t.reactor

(* ------------------------------------------------------------------ *)
(* Replies                                                             *)
(* ------------------------------------------------------------------ *)

let percentile_of_snapshot snap q =
  let open Obs.Telemetry in
  match
    List.find_opt
      (fun h -> h.h_domain = "serve" && h.h_name = "request_s")
      snap.histograms
  with
  | Some h when h.h_count > 0 -> Json.num (quantile h q *. 1000.0)
  | _ -> Json.Null

let stats_reply t =
  let c = Lru.Sharded.stats t.cache in
  let snap = Obs.Telemetry.snapshot () in
  let counter name = Json.Num (float_of_int (Obs.Telemetry.Counter.value name)) in
  let sessions_live = Json.Num (float_of_int (Lru.length t.sessions)) in
  Json.Obj
    [
      ("status", Json.Str "stats");
      ("telemetry_enabled", Json.Bool (Obs.Telemetry.is_enabled ()));
      ("requests", counter Metrics.requests);
      ("responses_ok", counter Metrics.responses_ok);
      ("responses_error", counter Metrics.responses_error);
      ("overloaded", counter Metrics.overloaded);
      ("expired", counter Metrics.expired);
      ("batches", counter Metrics.batches);
      ("dispatch_failures", counter Metrics.dispatch_failures);
      ("rejected_connections", counter Metrics.rejected_connections);
      ("encode_failures", counter Metrics.encode_failures);
      ("loop_failures", counter Metrics.loop_failures);
      ("queue_depth", Json.Num (float_of_int (queue_depth t)));
      ("live_connections", Json.Num (float_of_int (live_connections t)));
      ("sessions_live", sessions_live);
      ( "sessions",
        Json.Obj
          [
            ("live", sessions_live);
            ("opened", counter Metrics.sessions_opened);
            ("evicted", counter Metrics.sessions_evicted);
            ("folds", counter Metrics.folds);
            ("retires", counter Metrics.retires);
            ("invalidations", counter Metrics.invalidations);
          ] );
      ("cache_shards", Json.Num (float_of_int (Lru.Sharded.shard_count t.cache)));
      ( "cache",
        Json.Obj
          [
            ("hits", Json.Num (float_of_int c.Lru.hits));
            ("misses", Json.Num (float_of_int c.Lru.misses));
            ("evictions", Json.Num (float_of_int c.Lru.evictions));
            ("invalidations", Json.Num (float_of_int c.Lru.invalidations));
            ("size", Json.Num (float_of_int c.Lru.size));
            ("capacity", Json.Num (float_of_int c.Lru.capacity));
          ] );
      ("request_p50_ms", percentile_of_snapshot snap 0.5);
      ("request_p99_ms", percentile_of_snapshot snap 0.99);
    ]

let error_reply id reason =
  Obs.Telemetry.Counter.incr Metrics.responses_error;
  Protocol.error_reply ~id reason

let ok_reply ?audit id ~cached est =
  Obs.Telemetry.Counter.incr Metrics.responses_ok;
  Protocol.ok_reply ~id ~cached ~audit est

(* Count a request in; the result answers it and records its latency. *)
let answerer t conn =
  let t0 = Unix.gettimeofday () in
  Obs.Telemetry.Counter.incr Metrics.requests;
  fun reply ->
    Obs.Telemetry.Histogram.observe Metrics.h_request_s (Unix.gettimeofday () -. t0);
    Reactor.reply t.reactor conn reply

(* Work answered later, on another thread.  It counts as in flight until
   its reply is queued, and whatever raises on the way, the client still
   gets exactly one reply. *)
let admit t ~id answer compute =
  Atomic.incr t.in_flight;
  fun x ->
    Fun.protect
      ~finally:(fun () -> Atomic.decr t.in_flight)
      (fun () ->
        answer
          (try compute x
           with e -> error_reply id (Printf.sprintf "internal error: %s" (Printexc.to_string e))))

(* ------------------------------------------------------------------ *)
(* Localize                                                            *)
(* ------------------------------------------------------------------ *)

let handle_localize t conn (req : Protocol.localize) =
  let answer = answerer t conn in
  let id = req.Protocol.id in
  if Reactor.draining t.reactor then answer (error_reply id "draining")
  else begin
    let obs = Protocol.observations_of req in
    let key = Protocol.cache_key obs in
    (* Read the key's version tag before computing: if a streamed update
       invalidates this key while the batcher works, the [add_at] below is
       dropped instead of re-installing the stale reply. *)
    let cache_gen = Lru.Sharded.generation t.cache key in
    let cached = if req.Protocol.want_audit then None else Lru.Sharded.find t.cache key in
    match cached with
    | Some est -> answer (ok_reply id ~cached:true est)
    | None -> (
        let deadline =
          match (req.Protocol.deadline_ms, t.cfg.default_deadline_ms) with
          | Some ms, _ | None, Some ms -> Some (Unix.gettimeofday () +. (ms /. 1000.0))
          | None, None -> None
        in
        let on_done =
          admit t ~id answer (function
            | Batcher.Expired -> Protocol.expired_reply ~id
            | Batcher.Computed (Ok est, audit) ->
                Lru.Sharded.add_at t.cache ~gen:cache_gen key est;
                let audit = if req.Protocol.want_audit then Some audit else None in
                ok_reply ?audit id ~cached:false est
            | Batcher.Computed (Error reason, _) -> error_reply id reason)
        in
        match
          Batcher.submit t.batcher ~obs ?deadline ~want_audit:req.Protocol.want_audit ~on_done ()
        with
        | `Queued -> ()
        | `Overloaded | `Closed ->
            Atomic.decr t.in_flight;
            answer (Protocol.overloaded_reply ~id))
  end

(* ------------------------------------------------------------------ *)
(* Streaming updates (session thread)                                  *)
(* ------------------------------------------------------------------ *)

(* Drop the cached one-shot reply for the session's base observation:
   the session's live state has moved past it, so a later localize over
   the same vector must recompute (and [add_at] keeps any in-flight
   stale compute from re-installing it). *)
let invalidate_session_key t target =
  match Hashtbl.find_opt t.session_keys target with
  | None -> ()
  | Some key ->
      ignore (Lru.Sharded.invalidate_key t.cache key);
      Obs.Telemetry.Counter.incr Metrics.invalidations

(* Replies are computed from live session state — never the result
   cache — so [cached] is always [false]. *)
let apply_update t (u : Protocol.update) =
  let id = u.Protocol.u_id and target = u.Protocol.u_target in
  try
    match Protocol.base_observations_of u with
    | Some obs -> (
        (* Open (or reset) the session.  The base estimate is
           bit-identical to a one-shot localize over the same
           observations, so the cached entry under this key — if any —
           is still truthful and stays. *)
        let session, est = Octant.Pipeline.Session.create ~epoch:u.Protocol.u_epoch t.ctx obs in
        Obs.Telemetry.Counter.incr Metrics.sessions_opened;
        (match Lru.add t.sessions target session with
        | Some victim ->
            Obs.Telemetry.Counter.incr Metrics.sessions_evicted;
            Hashtbl.remove t.session_keys victim
        | None -> ());
        Hashtbl.replace t.session_keys target (Protocol.cache_key obs);
        match u.Protocol.u_retire_upto with
        | Some upto ->
            let est = Octant.Pipeline.Session.retire session ~upto_epoch:upto in
            Obs.Telemetry.Counter.incr Metrics.retires;
            invalidate_session_key t target;
            ok_reply id ~cached:false est
        | None -> ok_reply id ~cached:false est)
    | None -> (
        match Lru.find t.sessions target with
        | None ->
            (* The failover contract: the client (or the shard front
               after a backend loss) replays from a base vector. *)
            error_reply id ("unknown session " ^ target)
        | Some session ->
            let est = ref (Octant.Pipeline.Session.estimate session) in
            let delta = Protocol.quantized_delta u in
            if Array.length delta > 0 then begin
              est :=
                Octant.Pipeline.Session.fold session
                  { Octant.Pipeline.Session.d_rtts = delta; d_epoch = u.Protocol.u_epoch };
              Obs.Telemetry.Counter.incr Metrics.folds
            end;
            (match u.Protocol.u_retire_upto with
            | Some upto ->
                est := Octant.Pipeline.Session.retire session ~upto_epoch:upto;
                Obs.Telemetry.Counter.incr Metrics.retires
            | None -> ());
            invalidate_session_key t target;
            ok_reply id ~cached:false !est)
  with Invalid_argument reason -> error_reply id reason

let handle_update t conn (u : Protocol.update) =
  let answer = answerer t conn in
  let id = u.Protocol.u_id in
  if Reactor.draining t.reactor then answer (error_reply id "draining")
  else
    Session_thread.submit t.session_thread (admit t ~id answer (fun () -> apply_update t u))

let on_request t conn = function
  | Error reply ->
      Obs.Telemetry.Counter.incr Metrics.bad_frames;
      Reactor.reply t.reactor conn reply
  | Ok Protocol.Ping -> Reactor.reply t.reactor conn Protocol.pong_reply
  | Ok Protocol.Stats -> Reactor.reply t.reactor conn (stats_reply t)
  | Ok Protocol.Shutdown ->
      request_shutdown t;
      Reactor.reply t.reactor conn Protocol.draining_reply
  | Ok (Protocol.Localize req) -> handle_localize t conn req
  | Ok (Protocol.Update u) -> handle_update t conn u

(* ------------------------------------------------------------------ *)
(* Lifecycle                                                           *)
(* ------------------------------------------------------------------ *)

let start ?(config = default_config) ?compute ~ctx () =
  if config.cache_shards < 1 then invalid_arg "Server.start: cache_shards < 1";
  if config.max_connections < 1 then invalid_arg "Server.start: max_connections < 1";
  if config.session_capacity < 1 then invalid_arg "Server.start: session_capacity < 1";
  let reactor =
    Reactor.create ~host:config.host ~port:config.port ~max_connections:config.max_connections
      ~max_frame_bytes:config.max_frame_bytes
      ~counters:
        {
          Reactor.connections = Metrics.connections;
          rejected_connections = Metrics.rejected_connections;
          loop_failures = Metrics.loop_failures;
          encode_failures = Metrics.encode_failures;
        }
      ()
  in
  let compute =
    match compute with Some c -> c | None -> Batcher.compute_of_ctx ctx
  in
  let t =
    {
      cfg = config;
      ctx;
      reactor;
      batcher =
        Batcher.create ~compute ?jobs:config.jobs ~max_queue:config.max_queue
          ~max_batch:config.max_batch ~batch_delay_s:config.batch_delay_s ();
      cache = Lru.Sharded.create ~shards:config.cache_shards ~capacity:config.cache_capacity ();
      sessions = Lru.create ~capacity:config.session_capacity ();
      session_keys = Hashtbl.create 32;
      session_thread = Session_thread.create ();
      in_flight = Atomic.make 0;
    }
  in
  Reactor.run reactor
    {
      Reactor.on_request = on_request t;
      in_flight = (fun () -> Atomic.get t.in_flight);
      on_drained = ignore;
    };
  t

(* The reactor drains first: intake closes while the batcher and the
   session thread keep running, so every in-flight reply is queued and
   flushed before the sockets close.  Both threads then stop with
   nothing left to do. *)
let stop t =
  Reactor.stop t.reactor;
  Batcher.drain t.batcher;
  Session_thread.stop t.session_thread
