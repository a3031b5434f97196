(* The event loop under the daemon and the shard front.  See reactor.mli
   for the contract. *)

type counters = {
  connections : Obs.Telemetry.Counter.t;
  rejected_connections : Obs.Telemetry.Counter.t;
  loop_failures : Obs.Telemetry.Counter.t;
  encode_failures : Obs.Telemetry.Counter.t;
}

type peer =
  | Client
  | Backend of { on_reply : (Json.t, string) result -> unit; on_close : unit -> unit }

type conn = {
  id : int;
  fd : Unix.file_descr;
  frame : Framing.t;          (* codec sniffing + frame reassembly *)
  peer : peer;
  outq : string Queue.t;      (* encoded bytes awaiting writability *)
  mutable off : int;          (* bytes of the queue head already written *)
  slots : slot Queue.t;       (* ordered replies still owed, oldest first *)
  mutable failed : bool;      (* a write hit a hard error; the loop closes it *)
  mutable closed : bool;
}

and slot = { s_conn : conn; mutable s_bytes : string option }

type handler = {
  on_request : conn -> (Protocol.request, Json.t) result -> unit;
  in_flight : unit -> int;
  on_drained : unit -> unit;
}

type t = {
  listener : Unix.file_descr;
  bound_port : int;
  max_connections : int;
  max_frame_bytes : int;
  counters : counters;
  wake_r : Unix.file_descr;
  wake_w : Unix.file_descr;
  lock : Mutex.t; (* guards conns, clients, next_id, every queue and flag *)
  conns : (int, conn) Hashtbl.t;
  mutable clients : int;
  mutable next_id : int;
  mutable last_input : float; (* last client bytes read; gates the drain *)
  stopping : bool Atomic.t;
  shutdown_requested : bool Atomic.t;
  mutable loop : Thread.t option;
}

(* How long the flush may push queued replies at peers that stopped
   reading, or wait out peers that keep sending: no client can block
   shutdown forever. *)
let flush_timeout_s = 5.0

(* Input quiescence the flush waits for.  Requests fully sent before
   [stop] can still sit in the kernel when nothing reads as in flight;
   closing at that instant resets the connection with unread data, which
   destroys the replies already queued on it. *)
let quiet_s = 0.3

(* A peer that hangs up turns our next write into EPIPE; with SIGPIPE at
   its default, that kills whatever process embeds the server. *)
let ignore_sigpipe =
  lazy (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ())

let port t = t.bound_port
let draining t = Atomic.get t.stopping
let request_shutdown t = Atomic.set t.shutdown_requested true

let wait t =
  while not (Atomic.get t.shutdown_requested) do
    Thread.delay 0.05
  done

let live_connections t =
  Mutex.lock t.lock;
  let n = t.clients in
  Mutex.unlock t.lock;
  n

(* The pipe is non-blocking, and a full pipe already guarantees a
   pending wakeup. *)
let wake t = try ignore (Unix.write_substring t.wake_w "w" 0 1) with Unix.Unix_error _ -> ()

(* ------------------------------------------------------------------ *)
(* Output                                                              *)
(* ------------------------------------------------------------------ *)

(* Write queued output as far as the kernel takes it.  Caller holds the
   lock; the fd is non-blocking, so this never parks a thread.  A hard
   error only marks the connection: the loop closes it, since a close on
   another thread could alias a recycled descriptor number. *)
let flush_locked c =
  let rec go () =
    match Queue.peek_opt c.outq with
    | None -> ()
    | Some s -> (
        let len = String.length s - c.off in
        match Unix.write_substring c.fd s c.off len with
        | n when n = len ->
            ignore (Queue.pop c.outq);
            c.off <- 0;
            go ()
        | n -> c.off <- c.off + n
        | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
        | exception Unix.Unix_error _ -> c.failed <- true)
  in
  go ()

(* Queue under the lock and write right away: a reply the socket has
   room for never waits a select round.  The loop is woken only for what
   is left over, or for a failure it must reap. *)
let enqueue t c push =
  Mutex.lock t.lock;
  let need_wake =
    (not (c.closed || c.failed))
    &&
    (push ();
     flush_locked c;
     c.failed || not (Queue.is_empty c.outq))
  in
  Mutex.unlock t.lock;
  if need_wake then wake t

let send t c bytes = enqueue t c (fun () -> Queue.push bytes c.outq)

let encode codec reply =
  match codec with
  | Framing.Binary -> Protocol.Binary.frame (Protocol.Binary.encode_reply reply)
  | Framing.Sniffing | Framing.Json_lines -> Json.to_string reply ^ "\n"

(* An unencodable reply (a pathological id blowing a codec length) must
   not escape: on the loop thread it would cost the connection, on any
   other thread the client's only answer.  Fall back to a minimal error
   both codecs accept. *)
let encode_safe t c reply =
  let codec = Framing.codec c.frame in
  try encode codec reply
  with _ ->
    Obs.Telemetry.Counter.incr t.counters.encode_failures;
    encode codec (Protocol.error_reply ~id:Json.Null "reply encoding failed")

let reply t c r = send t c (encode_safe t c r)

let reserve t c =
  let slot = { s_conn = c; s_bytes = None } in
  Mutex.lock t.lock;
  Queue.push slot c.slots;
  Mutex.unlock t.lock;
  slot

(* Fill a slot, then release the filled prefix of the slot queue. *)
let fill t slot r =
  let c = slot.s_conn in
  let bytes = encode_safe t c r in
  enqueue t c (fun () ->
      slot.s_bytes <- Some bytes;
      let rec release () =
        match Queue.peek_opt c.slots with
        | Some { s_bytes = Some b; _ } ->
            ignore (Queue.pop c.slots);
            Queue.push b c.outq;
            release ()
        | Some { s_bytes = None; _ } | None -> ()
      in
      release ())

(* ------------------------------------------------------------------ *)
(* Connections                                                         *)
(* ------------------------------------------------------------------ *)

let register t fd peer frame =
  Mutex.lock t.lock;
  let c =
    {
      id = t.next_id;
      fd;
      frame;
      peer;
      outq = Queue.create ();
      off = 0;
      slots = Queue.create ();
      failed = false;
      closed = false;
    }
  in
  t.next_id <- t.next_id + 1;
  Hashtbl.replace t.conns c.id c;
  (match peer with Client -> t.clients <- t.clients + 1 | Backend _ -> ());
  Mutex.unlock t.lock;
  c

(* Loop thread only. *)
let close t c =
  if not c.closed then begin
    Mutex.lock t.lock;
    c.closed <- true;
    Hashtbl.remove t.conns c.id;
    (match c.peer with Client -> t.clients <- t.clients - 1 | Backend _ -> ());
    Mutex.unlock t.lock;
    (try Unix.close c.fd with Unix.Unix_error _ -> ());
    match c.peer with Backend b -> b.on_close () | Client -> ()
  end

let connect t (host, port) ~greeting ~on_reply ~on_close =
  let addr = Unix.ADDR_INET (Unix.inet_addr_of_string host, port) in
  match Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 with
  | exception Unix.Unix_error _ -> None
  | fd -> (
      match
        Unix.connect fd addr;
        Unix.setsockopt fd Unix.TCP_NODELAY true;
        Unix.set_nonblock fd
      with
      | () ->
          let c = register t fd (Backend { on_reply; on_close }) (Framing.create_binary ()) in
          send t c greeting;
          Some c
      | exception Unix.Unix_error _ ->
          (try Unix.close fd with Unix.Unix_error _ -> ());
          None)

(* ------------------------------------------------------------------ *)
(* Input                                                               *)
(* ------------------------------------------------------------------ *)

(* Client frames decode here; a bad one becomes the error reply it is
   owed.  Blank JSON lines are no frame at all. *)
let decode_json line =
  let n = String.length line in
  let line = if n > 0 && line.[n - 1] = '\r' then String.sub line 0 (n - 1) else line in
  if String.trim line = "" then None
  else
    Some
      (match Json.of_string line with
      | Error e -> Error (Protocol.error_reply ~id:Json.Null ("bad frame: " ^ e))
      | Ok json -> (
          match Protocol.parse_request json with
          | Ok req -> Ok req
          | Error e ->
              let id = Option.value ~default:Json.Null (Json.member "id" json) in
              Error (Protocol.error_reply ~id ("bad request: " ^ e))))

let feed t handler c data =
  let max_frame_bytes = t.max_frame_bytes in
  match c.peer with
  | Client ->
      let deliver d = if not c.closed then handler.on_request c d in
      Framing.feed c.frame ~max_frame_bytes
        ~on_json:(fun line -> Option.iter deliver (decode_json line))
        ~on_binary:(fun payload ->
          deliver
            (Result.map_error
               (fun e -> Protocol.error_reply ~id:Json.Null ("bad request: " ^ e))
               (Protocol.Binary.decode_request payload)))
        ~on_oversize:(fun () ->
          deliver
            (Error
               (Protocol.error_reply ~id:Json.Null
                  (Printf.sprintf "frame too large (max %d bytes)" max_frame_bytes))))
        data
  | Backend b ->
      (* A corrupt length-prefixed stream leaves every later frame
         boundary suspect, so the connection is dropped. *)
      let corrupt reason =
        if not c.closed then begin
          b.on_reply (Error reason);
          close t c
        end
      in
      Framing.feed c.frame ~max_frame_bytes ~on_json:ignore
        ~on_binary:(fun payload ->
          if not c.closed then
            match Protocol.Binary.decode_reply payload with
            | Ok r -> b.on_reply (Ok r)
            | Error e -> corrupt e)
        ~on_oversize:(fun () -> corrupt "oversized reply frame")
        data

let read_ready t handler buf c =
  let rec go () =
    match Unix.read c.fd buf 0 (Bytes.length buf) with
    | 0 -> close t c
    | n ->
        (match c.peer with Client -> t.last_input <- Unix.gettimeofday () | Backend _ -> ());
        feed t handler c (Bytes.sub_string buf 0 n);
        (* Keep reading while the kernel has more; EAGAIN ends the burst. *)
        if n = Bytes.length buf && not (c.closed || c.failed) then go ()
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
    | exception (Unix.Unix_error _ | Sys_error _) -> close t c
  in
  go ()

let write_ready t c =
  Mutex.lock t.lock;
  flush_locked c;
  Mutex.unlock t.lock

let drain_wake t =
  let buf = Bytes.create 64 in
  let rec go () =
    match Unix.read t.wake_r buf 0 (Bytes.length buf) with
    | n when n = Bytes.length buf -> go ()
    | _ -> ()
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
  in
  go ()

let accept_ready t =
  let rec go () =
    match Unix.accept ~cloexec:true t.listener with
    | fd, _ ->
        if live_connections t >= t.max_connections then begin
          (* Admitting past the cap would push select(2) over
             FD_SETSIZE and kill the loop with EINVAL: refusing one client
             beats wedging all of them. *)
          Obs.Telemetry.Counter.incr t.counters.rejected_connections;
          try Unix.close fd with Unix.Unix_error _ -> ()
        end
        else begin
          (try Unix.set_nonblock fd with Unix.Unix_error _ -> ());
          (try Unix.setsockopt fd Unix.TCP_NODELAY true with Unix.Unix_error _ -> ());
          Obs.Telemetry.Counter.incr t.counters.connections;
          ignore (register t fd Client (Framing.create ()))
        end;
        go ()
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
    | exception Unix.Unix_error ((Unix.EINTR | Unix.ECONNABORTED), _, _) -> go ()
  in
  go ()

(* ------------------------------------------------------------------ *)
(* The loop                                                            *)
(* ------------------------------------------------------------------ *)

type phase = Serving | Draining of float | Flushing of float

(* One pass: readiness over every socket, then accept, write and read,
   then reap the connections whose writes failed on any thread. *)
let step t handler buf ~flushing =
  let stopping = Atomic.get t.stopping in
  Mutex.lock t.lock;
  let watched = Hashtbl.fold (fun _ c acc -> c :: acc) t.conns [] in
  let wfds = List.filter_map (fun c -> if Queue.is_empty c.outq then None else Some c.fd) watched in
  Mutex.unlock t.lock;
  (* Clients stay readable through the drain: what they pipelined before
     [stop] is read and answered.  Backends stay readable until the
     flush, since their replies are what ends the drain. *)
  let rfds =
    List.filter_map
      (fun c -> match c.peer with Backend _ when flushing -> None | _ -> Some c.fd)
      watched
  in
  let rfds = t.wake_r :: (if stopping then rfds else t.listener :: rfds) in
  let r, w, _ =
    try Unix.select rfds wfds [] 0.2 with
    | Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], [])
    | Unix.Unix_error _ ->
        Obs.Telemetry.Counter.incr t.counters.loop_failures;
        Thread.delay 0.05;
        ([], [], [])
  in
  if List.memq t.wake_r r then drain_wake t;
  if (not stopping) && List.memq t.listener r then accept_ready t;
  List.iter
    (fun c ->
      (* A fault in one connection's handling costs that connection. *)
      try
        if (not c.closed) && List.memq c.fd w then write_ready t c;
        if (not c.closed) && List.memq c.fd r then read_ready t handler buf c
      with _ ->
        Obs.Telemetry.Counter.incr t.counters.loop_failures;
        close t c)
    watched;
  List.iter (fun c -> if c.failed then close t c) watched

let output_pending t =
  Mutex.lock t.lock;
  let pending =
    Hashtbl.fold
      (fun _ c acc ->
        acc || match c.peer with Client -> not (Queue.is_empty c.outq) | Backend _ -> false)
      t.conns false
  in
  Mutex.unlock t.lock;
  pending

(* The drain, once [stop] is called: intake closes, in-flight work
   finishes (or the window runs out and [on_drained] answers the rest),
   then input goes quiet and output flushes, and the loop ends.  The
   flush window bounds the quiescence wait too, so a client that never
   stops sending cannot hold the loop open. *)
let advance t handler ~drain_timeout_s phase =
  let now = Unix.gettimeofday () in
  match phase with
  | Serving when Atomic.get t.stopping ->
      (* A client whose connect returned before [stop] sits in the
         listen backlog; closing the listener would reset it with its
         requests unread.  Take it in once, then refuse new ones. *)
      (try accept_ready t
       with Unix.Unix_error _ -> Obs.Telemetry.Counter.incr t.counters.loop_failures);
      Some (Draining (now +. drain_timeout_s))
  | Serving -> Some Serving
  | Draining deadline ->
      if handler.in_flight () = 0 || now >= deadline then begin
        (try handler.on_drained ()
         with _ -> Obs.Telemetry.Counter.incr t.counters.loop_failures);
        Some (Flushing (now +. flush_timeout_s))
      end
      else Some phase
  | Flushing deadline ->
      let quiet = now -. t.last_input >= quiet_s in
      if ((not (output_pending t)) && quiet) || now >= deadline then None else Some phase

let run_loop t ~drain_timeout_s handler =
  let buf = Bytes.create 65536 in
  let phase = ref (Some Serving) in
  while Option.is_some !phase do
    (* An exception escaping here would leave the server alive but deaf;
       a fault outside per-connection handling costs one tick instead. *)
    try
      let flushing = match !phase with Some (Flushing _) -> true | _ -> false in
      step t handler buf ~flushing;
      phase := Option.bind !phase (advance t handler ~drain_timeout_s)
    with _ ->
      Obs.Telemetry.Counter.incr t.counters.loop_failures;
      Thread.delay 0.01
  done

let create ~host ~port ~max_connections ~max_frame_bytes ~counters () =
  Lazy.force ignore_sigpipe;
  let listener = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  (try
     Unix.setsockopt listener Unix.SO_REUSEADDR true;
     Unix.bind listener (Unix.ADDR_INET (Unix.inet_addr_of_string host, port));
     Unix.listen listener 128;
     Unix.set_nonblock listener
   with e ->
     (try Unix.close listener with Unix.Unix_error _ -> ());
     raise e);
  let bound_port =
    match Unix.getsockname listener with Unix.ADDR_INET (_, p) -> p | Unix.ADDR_UNIX _ -> port
  in
  let wake_r, wake_w = Unix.pipe ~cloexec:true () in
  Unix.set_nonblock wake_r;
  Unix.set_nonblock wake_w;
  {
    listener;
    bound_port;
    max_connections;
    max_frame_bytes;
    counters;
    wake_r;
    wake_w;
    lock = Mutex.create ();
    conns = Hashtbl.create 32;
    clients = 0;
    next_id = 0;
    last_input = Unix.gettimeofday ();
    stopping = Atomic.make false;
    shutdown_requested = Atomic.make false;
    loop = None;
  }

let run ?(drain_timeout_s = infinity) t handler =
  t.loop <- Some (Thread.create (fun () -> run_loop t ~drain_timeout_s handler) ())

let stop t =
  if not (Atomic.exchange t.stopping true) then begin
    Atomic.set t.shutdown_requested true;
    wake t;
    Option.iter Thread.join t.loop;
    t.loop <- None;
    (* The loop is gone: everything owed has been written, or the flush
       window gave up on peers that stopped reading.  Every connection is
       marked closed before its fd is, so a late [send] from another
       thread drops instead of writing to a recycled descriptor. *)
    Mutex.lock t.lock;
    let all = Hashtbl.fold (fun _ c acc -> c :: acc) t.conns [] in
    Hashtbl.reset t.conns;
    t.clients <- 0;
    List.iter (fun c -> c.closed <- true) all;
    Mutex.unlock t.lock;
    List.iter
      (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ())
      (t.listener :: t.wake_r :: t.wake_w :: List.map (fun c -> c.fd) all)
  end
