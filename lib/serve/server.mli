(** Event-driven localization daemon: request handlers on a {!Reactor}.

    The reactor's loop thread owns every socket: it accepts, reads,
    frames and decodes requests, and drains per-connection output queues
    on writability.  A slow or stalled peer therefore costs one fd and
    some buffered bytes — never a thread.

    Two wire codecs share one port, negotiated per connection by the
    first bytes sent: {!Protocol.Binary.magic} switches the connection
    to length-prefixed binary frames; anything else is newline-delimited
    JSON ({!Protocol}).  Replies use the connection's codec and are
    bit-identical across codecs (the parity suite pins this).

    Cache hits (a sharded LRU, {!Lru.Sharded}, keyed by the exact
    quantized observation), decode errors, overload sheds, and control
    frames are answered inline on the loop thread.  A cache-missing
    localize is submitted to the {!Batcher} at decode time — so
    admission control still sheds immediately — with a completion
    callback: the batcher thread caches the result and sends the reply.
    Streamed updates run on one session thread, in arrival order.  The
    daemon runs three threads: the loop, the batcher and the session
    thread.  Replies to pipelined requests on one connection may arrive
    out of request order; clients correlate by [id].

    {!stop} runs the reactor's drain: it stops accepting, answers every
    frame that still arrives ([ok], or a ["draining"] error for new
    work), waits for every in-flight reply, then flushes output until
    0.3 s pass without input, for at most 5 s — a dead client, or one
    that never stops sending, must not block shutdown forever — and
    closes the sockets. *)

type config = {
  host : string;              (** Bind address (default 127.0.0.1). *)
  port : int;                 (** 0 = ephemeral; read back with {!port}. *)
  jobs : int option;          (** Solver domains for dispatched batches. *)
  max_queue : int;            (** Admission bound; beyond it requests shed. *)
  max_batch : int;            (** Items per dispatched batch. *)
  batch_delay_s : float;      (** Coalescing window after the first item. *)
  cache_capacity : int;       (** LRU entries across all shards; 0 disables. *)
  cache_shards : int;
      (** Result-cache shards (clamped to a power of two ≤ capacity). *)
  max_frame_bytes : int;      (** Oversized frames get a structured error. *)
  max_connections : int;
      (** Live-connection cap; connections past it are closed at accept.
          Must stay safely below FD_SETSIZE (1024 on Linux) — one fd past
          it and select(2) fails outright. *)
  default_deadline_ms : float option;
      (** Applied when a request carries no deadline of its own. *)
  session_capacity : int;
      (** Live streaming sessions ({!Protocol.update}); the
          least-recently-touched session past it is evicted, and a later
          delta for the evicted target gets the ["unknown session"] error
          (the client replays from a base vector). *)
}

val default_config : config
(** [{host = "127.0.0.1"; port = 0; jobs = None; max_queue = 256;
     max_batch = 64; batch_delay_s = 0.002;
     cache_capacity = 1024; cache_shards = 8;
     max_frame_bytes = 1_048_576; max_connections = 900;
     default_deadline_ms = None; session_capacity = 256}] *)

type t

val start :
  ?config:config -> ?compute:Batcher.compute -> ctx:Octant.Pipeline.context -> unit -> t
(** Bind, listen, and return once the event loop is running.  [compute]
    overrides the solver calls the batcher dispatches — the fault
    -injection tests use it to make the solver raise or stall; it
    defaults to {!Batcher.compute_of_ctx}[ ctx].
    @raise Invalid_argument on [cache_shards < 1],
    [max_connections < 1], or [session_capacity < 1].
    @raise Unix.Unix_error when the bind fails. *)

val port : t -> int
(** The bound port (useful with [port = 0]). *)

val cache_stats : t -> Lru.stats
(** Summed across shards. *)

val live_connections : t -> int
val queue_depth : t -> int

val request_shutdown : t -> unit
(** Async-signal-safe shutdown trigger: flips an atomic that {!wait}
    polls.  Does not block; call {!stop} afterwards to drain. *)

val wait : t -> unit
(** Block until {!request_shutdown} (or a [shutdown] frame, or {!stop})
    fires. *)

val stop : t -> unit
(** Graceful drain as described above, then the batcher and session
    threads stop.  Idempotent; safe to call from any thread but the
    server's own three. *)
