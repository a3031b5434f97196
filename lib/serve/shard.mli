(** Sharded serving front: consistent-hash fan-out over [octant_served]
    backends.

    One front process owns the client-facing port and N persistent
    binary ({!Protocol.Binary}) connections to backend daemons.  Each
    localize request is keyed by its exact quantized observation
    ({!Protocol.cache_key}) and routed on a consistent-hash {!Ring} —
    the same observation always lands on the same backend, so each
    backend's result cache only holds its own key range and the
    aggregate cache capacity scales with the backend count.

    The front is a set of request handlers on a {!Reactor}, the same
    event loop the daemon runs on, and never computes: the loop decodes
    client frames (both codecs, sniffed per connection exactly like the
    daemon), the front rewrites the request id to an internal sequence
    number, fans the re-encoded binary frame to the owning backend, and
    on the backend's reply restores the original id and encodes for the
    client's codec.  {b Replies are delivered in request order per
    client connection} (a per-connection slot queue holds later replies
    until earlier ones land) — unlike the daemon, whose pipelined
    replies may reorder.

    {b Backend loss is never a wedge} (the PR 6 discipline): when a
    backend connection drops, the front removes it from the ring,
    re-fans every request pending on it onto the surviving backends
    (bounded by [max_attempts]), and answers with a per-request error
    once the attempts are exhausted or no backend remains.  Lost
    backends are not re-dialed; health is visible in {!backend_stats}
    and the [stats] reply.

    Control frames are answered by the front itself: [ping] and [stats]
    locally (stats describes the front and its backends), [shutdown]
    starts the front's drain (backends keep running).  The drain is the
    reactor's, shared with the daemon: requests arriving after {!stop}
    get ["draining"] errors, in-flight ones wait for their backend up to
    [drain_timeout_s], then output flushes and the sockets close. *)

type config = {
  host : string;                (** Bind address (default 127.0.0.1). *)
  port : int;                   (** 0 = ephemeral; read back with {!port}. *)
  backends : (string * int) list;  (** Backend daemons as (host, port). *)
  vnodes : int;                 (** Virtual nodes per backend on the ring. *)
  max_attempts : int;
      (** Routing attempts per request (first send + re-fans) before the
          front answers with an error. *)
  max_frame_bytes : int;
  max_connections : int;        (** Client cap, as in {!Server.config}. *)
  drain_timeout_s : float;
      (** How long {!stop} waits for in-flight backend replies before
          answering the remainder with errors. *)
}

val default_config : config
(** [{host = "127.0.0.1"; port = 0; backends = []; vnodes = 128;
     max_attempts = 3; max_frame_bytes = 1_048_576;
     max_connections = 900; drain_timeout_s = 5.0}] *)

type backend_stat = {
  bs_name : string;        (** "host:port". *)
  bs_up : bool;
  bs_inflight : int;       (** Requests awaiting this backend's reply. *)
  bs_sent : int;           (** Requests fanned to it (lifetime). *)
  bs_replies : int;
  bs_p50_ms : float;       (** Send-to-reply latency quantiles; [nan] *)
  bs_p99_ms : float;       (** before the first reply. *)
}

type t

val start : ?config:config -> unit -> t
(** Connect to every backend and start the loop.  Backends that refuse
    the initial connection start out down (and off the ring).
    @raise Invalid_argument on an empty backend list or bad sizes.
    @raise Failure when no backend accepts the initial connection. *)

val port : t -> int
val backend_stats : t -> backend_stat list
(** In [config.backends] order. *)

val pending_count : t -> int
(** Requests currently awaiting a backend reply. *)

val live_connections : t -> int
val request_shutdown : t -> unit
val wait : t -> unit
(** Block until {!request_shutdown} (a signal handler, or a client
    [shutdown] frame) or {!stop}. *)

val stop : t -> unit
(** Stop intake, drain pending replies (bounded by [drain_timeout_s];
    the remainder get error replies), flush client output, close
    everything ({!Reactor.stop}).  Idempotent. *)
