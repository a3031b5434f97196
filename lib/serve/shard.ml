(* Sharded serving front: request handlers on a {!Reactor}.  See
   shard.mli for the architecture contract.

   Every handler runs on the reactor's loop thread — the front never
   computes — so the pending table, the ring and the backend records are
   only ever mutated there.  The mutex only makes the observer API
   (stats, pending_count) safe to call from other threads. *)

type config = {
  host : string;
  port : int;
  backends : (string * int) list;
  vnodes : int;
  max_attempts : int;
  max_frame_bytes : int;
  max_connections : int;
  drain_timeout_s : float;
}

let default_config =
  {
    host = "127.0.0.1";
    port = 0;
    backends = [];
    vnodes = 128;
    max_attempts = 3;
    max_frame_bytes = 1_048_576;
    max_connections = 900;
    drain_timeout_s = 5.0;
  }

type backend_stat = {
  bs_name : string;
  bs_up : bool;
  bs_inflight : int;
  bs_sent : int;
  bs_replies : int;
  bs_p50_ms : float;
  bs_p99_ms : float;
}

(* ------------------------------------------------------------------ *)
(* Local latency histogram                                             *)
(* ------------------------------------------------------------------ *)

(* Quarter-octave log buckets over [2^-8, 2^24) ms (~19% resolution):
   always-on per-backend latency without growing state, independent of
   the global telemetry enable flag. *)
module Lat = struct
  let n_buckets = (4 * 32) + 1

  type t = { buckets : int array; mutable count : int }

  let make () = { buckets = Array.make n_buckets 0; count = 0 }

  let bucket_of_ms ms =
    if ms <= 0.00390625 then 0
    else begin
      let b = 1 + int_of_float (Float.ceil (4.0 *. ((Float.log ms /. Float.log 2.0) +. 8.0))) in
      if b < 0 then 0 else if b >= n_buckets then n_buckets - 1 else b
    end

  let observe t ms =
    t.buckets.(bucket_of_ms ms) <- t.buckets.(bucket_of_ms ms) + 1;
    t.count <- t.count + 1

  (* Upper edge of the bucket holding the q-quantile. *)
  let quantile_ms t q =
    if t.count = 0 then Float.nan
    else begin
      let want =
        let w = int_of_float (Float.ceil (q *. float_of_int t.count)) in
        if w < 1 then 1 else if w > t.count then t.count else w
      in
      let acc = ref 0 and found = ref (n_buckets - 1) and i = ref 0 in
      while !i < n_buckets && !acc < want do
        acc := !acc + t.buckets.(!i);
        if !acc >= want then found := !i;
        incr i
      done;
      2.0 ** ((float_of_int (!found - 1) /. 4.0) -. 8.0)
    end
end

(* ------------------------------------------------------------------ *)
(* State                                                               *)
(* ------------------------------------------------------------------ *)

type backend = {
  b_name : string; (* "host:port" *)
  mutable b_conn : Reactor.conn option; (* None = down, never re-dialed *)
  mutable b_inflight : int;
  mutable b_sent : int;
  mutable b_replies : int;
  b_lat : Lat.t;
  b_sent_counter : Obs.Telemetry.Counter.t;
}

type pending = {
  p_seq : int;
  p_slot : Reactor.slot;   (* the client's reply, released in request order *)
  p_id : Json.t;           (* original id, restored on the way back *)
  p_key : string;          (* ring routing key *)
  p_wire : string;         (* framed binary request carrying the seq id *)
  mutable p_attempts : int;
  mutable p_backend : string;
  p_t0 : float;
}

type t = {
  cfg : config;
  reactor : Reactor.t;
  lock : Mutex.t; (* observer API only; all mutation is loop-thread *)
  backends : backend array;
  mutable ring : Ring.t;
  pending : (int, pending) Hashtbl.t;
  mutable next_seq : int;
}

let port t = Reactor.port t.reactor
let live_connections t = Reactor.live_connections t.reactor
let request_shutdown t = Reactor.request_shutdown t.reactor
let wait t = Reactor.wait t.reactor

let pending_count t =
  Mutex.lock t.lock;
  let n = Hashtbl.length t.pending in
  Mutex.unlock t.lock;
  n

let backend_stats t =
  Mutex.lock t.lock;
  let stats =
    Array.to_list
      (Array.map
         (fun b ->
           {
             bs_name = b.b_name;
             bs_up = Option.is_some b.b_conn;
             bs_inflight = b.b_inflight;
             bs_sent = b.b_sent;
             bs_replies = b.b_replies;
             bs_p50_ms = Lat.quantile_ms b.b_lat 0.50;
             bs_p99_ms = Lat.quantile_ms b.b_lat 0.99;
           })
         t.backends)
  in
  Mutex.unlock t.lock;
  stats

(* Restore the client's original id on a backend reply (the wire carried
   the internal sequence number).  Mirrors Protocol's convention: no
   [id] member when the request carried none, first member otherwise. *)
let restore_id p reply =
  match reply with
  | Json.Obj fields ->
      let rest = List.filter (fun (k, _) -> k <> "id") fields in
      if p.p_id = Json.Null then Json.Obj rest else Json.Obj (("id", p.p_id) :: rest)
  | other -> other

(* ------------------------------------------------------------------ *)
(* Pending requests: routing, re-fanning, failure                      *)
(* ------------------------------------------------------------------ *)

let fail_pending t p reason =
  Mutex.lock t.lock;
  Hashtbl.remove t.pending p.p_seq;
  Mutex.unlock t.lock;
  Obs.Telemetry.Counter.incr Metrics.shard_errors;
  Reactor.fill t.reactor p.p_slot (Protocol.error_reply ~id:p.p_id reason)

(* A send that fails only marks the backend connection; the loop then
   closes it, and [backend_down] re-fans whatever was routed there —
   this request included. *)
let route_and_send t p =
  if p.p_attempts >= t.cfg.max_attempts then
    fail_pending t p "backend lost (retries exhausted)"
  else
    let owner name = Array.find_opt (fun b -> b.b_name = name) t.backends in
    match Option.bind (Ring.route t.ring p.p_key) owner with
    | Some ({ b_conn = Some conn; _ } as b) ->
        p.p_attempts <- p.p_attempts + 1;
        p.p_backend <- b.b_name;
        Mutex.lock t.lock;
        b.b_inflight <- b.b_inflight + 1;
        b.b_sent <- b.b_sent + 1;
        Mutex.unlock t.lock;
        Obs.Telemetry.Counter.incr Metrics.shard_fanout;
        Obs.Telemetry.Counter.incr b.b_sent_counter;
        Reactor.send t.reactor conn p.p_wire
    | Some { b_conn = None; _ } | None ->
        (* The ring only holds live backends: this is an empty ring. *)
        fail_pending t p "no backends available"

(* The ring drops the lost backend, and everything that was awaiting it
   re-fans onto the survivors, lowest sequence first (deterministic
   order). *)
let backend_down t b =
  Mutex.lock t.lock;
  b.b_conn <- None;
  b.b_inflight <- 0;
  Mutex.unlock t.lock;
  t.ring <- Ring.remove t.ring b.b_name;
  Obs.Telemetry.Counter.incr Metrics.shard_backend_lost;
  Hashtbl.fold (fun _ p acc -> if p.p_backend = b.b_name then p :: acc else acc) t.pending []
  |> List.sort (fun a c -> compare a.p_seq c.p_seq)
  |> List.iter (fun p ->
         Obs.Telemetry.Counter.incr Metrics.shard_refan;
         route_and_send t p)

(* ------------------------------------------------------------------ *)
(* Request handling                                                    *)
(* ------------------------------------------------------------------ *)

let counter_value c = Json.Num (float_of_int (Obs.Telemetry.Counter.value c))

let stats_reply t =
  let backend_json =
    List.map
      (fun bs ->
        Json.Obj
          [
            ("name", Json.Str bs.bs_name);
            ("up", Json.Bool bs.bs_up);
            ("inflight", Json.Num (float_of_int bs.bs_inflight));
            ("sent", Json.Num (float_of_int bs.bs_sent));
            ("replies", Json.Num (float_of_int bs.bs_replies));
            ("p50_ms", Json.num bs.bs_p50_ms);
            ("p99_ms", Json.num bs.bs_p99_ms);
          ])
      (backend_stats t)
  in
  Json.Obj
    [
      ("status", Json.Str "stats");
      ("role", Json.Str "shard-front");
      ("backends", Json.List backend_json);
      ("pending", Json.Num (float_of_int (pending_count t)));
      ("live_connections", Json.Num (float_of_int (live_connections t)));
      ("requests", counter_value Metrics.shard_requests);
      ("fanout", counter_value Metrics.shard_fanout);
      ("refan", counter_value Metrics.shard_refan);
      ("backend_lost", counter_value Metrics.shard_backend_lost);
      ("replies", counter_value Metrics.shard_replies);
      ("errors", counter_value Metrics.shard_errors);
      ("orphan_replies", counter_value Metrics.shard_orphan_replies);
    ]

(* Forward one request to the backend that owns [key], re-encoded as a
   binary frame whose id is the internal sequence number. *)
let forward t slot ~id ~key with_id =
  Obs.Telemetry.Counter.incr Metrics.shard_requests;
  if Reactor.draining t.reactor then
    Reactor.fill t.reactor slot (Protocol.error_reply ~id "draining")
  else begin
    let seq = t.next_seq in
    t.next_seq <- seq + 1;
    let p =
      {
        p_seq = seq;
        p_slot = slot;
        p_id = id;
        p_key = key;
        p_wire =
          Protocol.Binary.frame
            (Protocol.Binary.encode_request (with_id (Json.Num (float_of_int seq))));
        p_attempts = 0;
        p_backend = "";
        p_t0 = Unix.gettimeofday ();
      }
    in
    Mutex.lock t.lock;
    Hashtbl.replace t.pending seq p;
    Mutex.unlock t.lock;
    route_and_send t p
  end

(* Localizes route by observation signature.  Streamed updates route by
   target id, so every frame for one target lands on the backend holding
   its live session.  After a backend loss the ring re-homes the target;
   session state does not move with it, so a re-fanned (or
   first-after-loss) delta gets the backend's "unknown session" error
   and the client replays from a base vector — the documented failover
   contract, the same recovery as a batch recompute. *)
let on_request t conn decoded =
  let slot = Reactor.reserve t.reactor conn in
  let answer = Reactor.fill t.reactor slot in
  match decoded with
  | Error reply ->
      Obs.Telemetry.Counter.incr Metrics.shard_bad_frames;
      answer reply
  | Ok Protocol.Ping -> answer Protocol.pong_reply
  | Ok Protocol.Stats -> answer (stats_reply t)
  | Ok Protocol.Shutdown ->
      request_shutdown t;
      answer Protocol.draining_reply
  | Ok (Protocol.Localize req) ->
      forward t slot ~id:req.Protocol.id
        ~key:(Protocol.cache_key (Protocol.observations_of req))
        (fun id -> Protocol.Localize { req with Protocol.id })
  | Ok (Protocol.Update u) ->
      forward t slot ~id:u.Protocol.u_id ~key:u.Protocol.u_target (fun u_id ->
          Protocol.Update { u with Protocol.u_id })

let on_backend_reply t b = function
  | Error _ ->
      (* The reactor drops the corrupt connection; [backend_down] follows. *)
      Obs.Telemetry.Counter.incr Metrics.shard_bad_frames
  | Ok reply -> (
      let owed =
        match Json.member "id" reply with
        | Some (Json.Num f) when Float.is_integer f -> Hashtbl.find_opt t.pending (int_of_float f)
        | _ -> None
      in
      match owed with
      | None -> Obs.Telemetry.Counter.incr Metrics.shard_orphan_replies
      | Some p ->
          Mutex.lock t.lock;
          Hashtbl.remove t.pending p.p_seq;
          if b.b_inflight > 0 then b.b_inflight <- b.b_inflight - 1;
          b.b_replies <- b.b_replies + 1;
          Lat.observe b.b_lat (1000.0 *. (Unix.gettimeofday () -. p.p_t0));
          Mutex.unlock t.lock;
          Obs.Telemetry.Counter.incr Metrics.shard_replies;
          Reactor.fill t.reactor p.p_slot (restore_id p reply))

(* ------------------------------------------------------------------ *)
(* Lifecycle                                                           *)
(* ------------------------------------------------------------------ *)

let start ?(config = default_config) () =
  if config.backends = [] then invalid_arg "Shard.start: no backends";
  if config.max_attempts < 1 then invalid_arg "Shard.start: max_attempts < 1";
  if config.max_connections < 1 then invalid_arg "Shard.start: max_connections < 1";
  if config.vnodes < 1 then invalid_arg "Shard.start: vnodes < 1";
  let names = List.map (fun (h, p) -> Printf.sprintf "%s:%d" h p) config.backends in
  if List.length (List.sort_uniq String.compare names) <> List.length names then
    invalid_arg "Shard.start: duplicate backend";
  let reactor =
    Reactor.create ~host:config.host ~port:config.port ~max_connections:config.max_connections
      ~max_frame_bytes:config.max_frame_bytes
      ~counters:
        {
          Reactor.connections = Metrics.shard_connections;
          rejected_connections = Metrics.shard_rejected_connections;
          loop_failures = Metrics.shard_loop_failures;
          encode_failures = Metrics.shard_encode_failures;
        }
      ()
  in
  let backend name =
    {
      b_name = name;
      b_conn = None;
      b_inflight = 0;
      b_sent = 0;
      b_replies = 0;
      b_lat = Lat.make ();
      b_sent_counter =
        Obs.Telemetry.Counter.make ~deterministic:false ~domain:"shard" ("sent:" ^ name);
    }
  in
  let t =
    {
      cfg = config;
      reactor;
      lock = Mutex.create ();
      backends = Array.of_list (List.map backend names);
      ring = Ring.make ~vnodes:config.vnodes [];
      pending = Hashtbl.create 64;
      next_seq = 0;
    }
  in
  (* The magic is the first and only codec negotiation; after it each
     backend connection speaks length-prefixed binary both ways. *)
  List.iteri
    (fun i addr ->
      let b = t.backends.(i) in
      b.b_conn <-
        Reactor.connect reactor addr ~greeting:Protocol.Binary.magic
          ~on_reply:(on_backend_reply t b) ~on_close:(fun () -> backend_down t b))
    config.backends;
  let up = List.filter (fun b -> Option.is_some b.b_conn) (Array.to_list t.backends) in
  if List.is_empty up then begin
    Reactor.stop reactor;
    failwith "Shard.start: no backend reachable"
  end;
  t.ring <- Ring.make ~vnodes:config.vnodes (List.map (fun b -> b.b_name) up);
  Reactor.run ~drain_timeout_s:config.drain_timeout_s reactor
    {
      Reactor.on_request = on_request t;
      in_flight = (fun () -> pending_count t);
      on_drained =
        (fun () ->
          (* What the backends did not answer in time degrades to an error
             reply — never silence. *)
          Hashtbl.fold (fun _ p acc -> p :: acc) t.pending []
          |> List.sort (fun a b -> compare a.p_seq b.p_seq)
          |> List.iter (fun p -> fail_pending t p "draining"));
    };
  t

let stop t =
  Reactor.stop t.reactor;
  Mutex.lock t.lock;
  Array.iter (fun b -> b.b_conn <- None) t.backends;
  Mutex.unlock t.lock
