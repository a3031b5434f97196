(** The event loop under the daemon ({!Server}) and the shard front
    ({!Shard}).

    One loop thread owns every socket: the listener, accepted client
    connections, and outbound connections (the front's backends).  It is
    the only caller of select(2) and the only thread that accepts,
    reads or closes.  Every fd is non-blocking, so a slow or stalled peer
    costs one fd and some buffered bytes, never a thread.  A write error
    on another thread only marks its connection; the loop closes it, so
    a recycled descriptor number can never alias a new connection.

    Client frames are sniffed per connection ({!Framing}: the
    {!Protocol.Binary.magic} or newline-delimited JSON), decoded, and
    handed to the handler as a request, or as the error reply a bad frame
    is owed.  Replies go out through {!reply} (any thread, any order) or
    through {!reserve} and {!fill} (request order).  Either way the bytes
    are written at once when the socket has room, so a reply never waits
    an extra select round; the rest drains on writability.

    Creating a reactor ignores SIGPIPE: a peer that hangs up costs its
    connection, not the process that embeds the server.

    {b Drain.}  {!stop} runs one policy for both servers:
    - accept the clients already in the listen backlog once, then stop
      accepting new connections;
    - keep reading clients and hand every frame to the handler, which
      answers it: [ok], or a ["draining"] error once {!draining} holds;
    - wait until [in_flight] reads 0 or [drain_timeout_s] runs out, then
      call [on_drained] to answer whatever is still owed;
    - flush output and wait for 0.3 s without client input, both within
      at most 5 s, so a client that keeps sending cannot hold the stop
      open; then close every socket. *)

type t
type conn
type slot

type counters = {
  connections : Obs.Telemetry.Counter.t;
  rejected_connections : Obs.Telemetry.Counter.t;
      (** Closed at accept: the live-connection cap was reached. *)
  loop_failures : Obs.Telemetry.Counter.t;
      (** Exceptions caught on the loop thread; each costs at most one
          connection. *)
  encode_failures : Obs.Telemetry.Counter.t;
      (** Replies the codec could not encode, answered with a fallback
          error. *)
}
(** The embedding server's own telemetry domain. *)

type handler = {
  on_request : conn -> (Protocol.request, Json.t) result -> unit;
      (** Loop thread, once per client frame, in arrival order.  [Error]
          carries the reply a malformed or oversized frame is owed. *)
  in_flight : unit -> int;  (** Requests admitted but not yet answered. *)
  on_drained : unit -> unit;
      (** Loop thread, once, when the drain stops waiting for in-flight
          work, whether it emptied or [drain_timeout_s] ran out. *)
}

val create :
  host:string ->
  port:int ->
  max_connections:int ->
  max_frame_bytes:int ->
  counters:counters ->
  unit ->
  t
(** Bind and listen; the loop starts with {!run}.  Client connections
    past [max_connections] are closed at accept: it must stay below
    FD_SETSIZE (1024 on Linux), or select(2) fails outright.
    @raise Unix.Unix_error when the bind fails. *)

val connect :
  t ->
  string * int ->
  greeting:string ->
  on_reply:((Json.t, string) result -> unit) ->
  on_close:(unit -> unit) ->
  conn option
(** Dial an outbound connection that speaks binary frames, and queue
    [greeting] on it.  [on_reply] runs on the loop thread for each reply
    frame; an [Error] (a corrupt or oversized frame) is followed by
    closing the connection.  [on_close] runs on the loop thread when the
    connection drops, but not at {!stop}.  [None] when the dial fails. *)

val run : ?drain_timeout_s:float -> t -> handler -> unit
(** Start the loop thread.  [drain_timeout_s] (default: unbounded) caps
    the drain's wait for in-flight work. *)

val port : t -> int
val live_connections : t -> int
(** Accepted client connections. *)

val send : t -> conn -> string -> unit
(** Queue encoded bytes; any thread.  Dropped once the connection is
    gone. *)

val reply : t -> conn -> Json.t -> unit
(** Encode for the connection's codec, then {!send}; any thread.  An
    unencodable reply degrades to a minimal error. *)

val reserve : t -> conn -> slot
(** Take the next place in the connection's reply order. *)

val fill : t -> slot -> Json.t -> unit
(** Like {!reply}, but the reply leaves only after the replies of every
    slot reserved before it on the connection. *)

val draining : t -> bool
(** [true] once {!stop} was called: new work should be refused. *)

val request_shutdown : t -> unit
(** Async-signal-safe: flips an atomic that {!wait} polls.  Does not
    stop anything; call {!stop} afterwards to drain. *)

val wait : t -> unit
(** Block until {!request_shutdown} or {!stop}. *)

val stop : t -> unit
(** Drain as described above, join the loop, close every socket.
    Idempotent; must not be called from the loop thread. *)
