(* End-to-end harness for the localization daemon.

   The load-bearing property: every bit of every service reply is
   reproducible by a direct [Pipeline.localize_batch] over the same
   (quantized) observations — the daemon adds batching, caching, and a
   wire format, never a different answer.  Concurrent clients hammer an
   in-process server, their replies are collected, and each field is
   compared for exact float equality against the matching direct batch
   slot (the [%.17g] printer round-trips binary64, so string transport
   loses nothing).

   The failure-mode paths get their own deterministic tests: deadline
   expiry (coalescing window much longer than the deadline), load
   shedding (queue of one, slow window, second request must be refused
   explicitly), audit round-trip, and graceful drain (queued work is
   still answered after a shutdown frame). *)

module Json = Octant_serve.Json
module Protocol = Octant_serve.Protocol
module Server = Octant_serve.Server

let n_landmarks = 12

let make_ctx () =
  let rng = Stats.Rng.create 55801 in
  let landmarks =
    Array.init n_landmarks (fun i ->
        {
          Octant.Pipeline.lm_key = i;
          lm_position =
            Geo.Geodesy.coord
              ~lat:(Stats.Rng.uniform rng 32.0 46.0)
              ~lon:(Stats.Rng.uniform rng (-118.0) (-78.0));
        })
  in
  let rtt a b =
    let prop = Geo.Geodesy.distance_to_min_rtt_ms (Geo.Geodesy.distance_km a b) in
    (1.37 *. prop) +. 2.2 +. Stats.Rng.uniform rng 0.0 2.5
  in
  let inter = Array.make_matrix n_landmarks n_landmarks 0.0 in
  for i = 0 to n_landmarks - 1 do
    for j = i + 1 to n_landmarks - 1 do
      let v =
        rtt landmarks.(i).Octant.Pipeline.lm_position landmarks.(j).Octant.Pipeline.lm_position
      in
      inter.(i).(j) <- v;
      inter.(j).(i) <- v
    done
  done;
  let ctx = Octant.Pipeline.prepare ~landmarks ~inter_landmark_rtt_ms:inter () in
  let target_rtts truth = Array.map (fun l -> rtt l.Octant.Pipeline.lm_position truth) landmarks in
  (ctx, rng, target_rtts)

(* ---- tiny line-oriented client ---- *)

let connect port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  (fd, Unix.in_channel_of_descr fd, Unix.out_channel_of_descr fd)

let send oc line =
  output_string oc line;
  output_char oc '\n';
  flush oc

let roundtrip ic oc line =
  send oc line;
  input_line ic

let parse_reply raw =
  match Json.of_string raw with
  | Ok json -> json
  | Error e -> Alcotest.failf "unparseable reply %S: %s" raw e

let fnum reply name =
  match Option.bind (Json.member name reply) Json.to_float with
  | Some f -> f
  | None -> Alcotest.failf "reply lacks numeric %S: %s" name (Json.to_string reply)

let bmem reply name =
  match Json.member name reply with
  | Some (Json.Bool b) -> b
  | _ -> Alcotest.failf "reply lacks boolean %S: %s" name (Json.to_string reply)

let localize_line ?(audit = false) ~id rtts =
  Json.to_string
    (Json.Obj
       ([
          ("id", Json.Str id);
          ("rtt_ms", Json.List (Array.to_list (Array.map Json.num rtts)));
        ]
       @ if audit then [ ("audit", Json.Bool true) ] else []))

(* Exact-equality pin of a reply field against the direct estimate. *)
let check_field what name expected got =
  if not (expected = got) then
    Alcotest.failf "%s: %s diverges (direct %h, wire %h)" what name expected got

let check_reply_matches what (est : Octant.Estimate.t) reply =
  Alcotest.(check string) (what ^ ": status") "ok" (Protocol.status_of reply);
  check_field what "lat" est.Octant.Estimate.point.Geo.Geodesy.lat (fnum reply "lat");
  check_field what "lon" est.Octant.Estimate.point.Geo.Geodesy.lon (fnum reply "lon");
  check_field what "area_km2" est.Octant.Estimate.area_km2 (fnum reply "area_km2");
  check_field what "error_radius_km" (Protocol.error_radius_km est)
    (fnum reply "error_radius_km");
  check_field what "top_weight" est.Octant.Estimate.top_weight (fnum reply "top_weight");
  check_field what "cells_used"
    (float_of_int est.Octant.Estimate.cells_used)
    (fnum reply "cells_used");
  check_field what "constraints_used"
    (float_of_int est.Octant.Estimate.constraints_used)
    (fnum reply "constraints_used");
  check_field what "height_ms" est.Octant.Estimate.target_height_ms (fnum reply "height_ms")

let obs_of_rtts rtts =
  Protocol.observations_of
    { Protocol.id = Json.Null; rtt_ms = rtts; whois = None; deadline_ms = None; want_audit = false }

(* ---- the main event: concurrent clients, bit-identical replies ---- *)

let n_clients = 4
let requests_per_client = 5

let test_e2e_bit_identical () =
  let ctx, rng, target_rtts = make_ctx () in
  (* Unique targets per (client, slot): pass 1 misses, pass 2 hits. *)
  let jobs_of_client =
    Array.init n_clients (fun c ->
        Array.init requests_per_client (fun r ->
            let truth =
              Geo.Geodesy.coord
                ~lat:(Stats.Rng.uniform rng 34.0 44.0)
                ~lon:(Stats.Rng.uniform rng (-112.0) (-82.0))
            in
            (Printf.sprintf "c%d-r%d" c r, target_rtts truth)))
  in
  let config =
    {
      Server.default_config with
      Server.jobs = Some 2;
      batch_delay_s = 0.004;
      cache_capacity = 1024;
    }
  in
  let srv = Server.start ~config ~ctx () in
  Fun.protect
    ~finally:(fun () -> Server.stop srv)
    (fun () ->
      let port = Server.port srv in
      let results : (string * string) list array = Array.make n_clients [] in
      let client c () =
        let fd, ic, oc = connect port in
        Fun.protect
          ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
          (fun () ->
            let replies = ref [] in
            (* Two passes over the same requests: the second must be
               served from the cache, still bit-identical. *)
            for pass = 1 to 2 do
              Array.iter
                (fun (tag, rtts) ->
                  let raw = roundtrip ic oc (localize_line ~id:tag rtts) in
                  replies := (Printf.sprintf "%s/p%d" tag pass, raw) :: !replies)
                jobs_of_client.(c)
            done;
            results.(c) <- List.rev !replies)
      in
      let threads = Array.init n_clients (fun c -> Thread.create (client c) ()) in
      Array.iter Thread.join threads;
      (* Direct ground truth: one localize_batch over every distinct
         request, exactly what the server is specified to equal. *)
      let tags = ref [] and obs = ref [] in
      Array.iter
        (Array.iter (fun (tag, rtts) ->
             tags := tag :: !tags;
             obs := obs_of_rtts rtts :: !obs))
        jobs_of_client;
      let tags = Array.of_list (List.rev !tags) in
      let direct = Octant.Pipeline.localize_batch ~jobs:2 ctx (Array.of_list (List.rev !obs)) in
      let slot_of_tag = Hashtbl.create 32 in
      Array.iteri (fun i tag -> Hashtbl.replace slot_of_tag tag direct.(i)) tags;
      let checked = ref 0 in
      Array.iter
        (List.iter (fun (tagged, raw) ->
             let tag = List.hd (String.split_on_char '/' tagged) in
             let reply = parse_reply raw in
             (match Json.member "id" reply with
             | Some (Json.Str id) -> Alcotest.(check string) "id echoed" tag id
             | _ -> Alcotest.failf "%s: id not echoed in %s" tagged raw);
             match Hashtbl.find slot_of_tag tag with
             | Ok est ->
                 check_reply_matches tagged est reply;
                 incr checked;
                 if String.length tagged > 2 && String.sub tagged (String.length tagged - 2) 2 = "p2"
                 then
                   Alcotest.(check bool) (tagged ^ ": second pass cached") true
                     (bmem reply "cached")
             | Error reason ->
                 Alcotest.(check string) (tagged ^ ": status") "error" (Protocol.status_of reply);
                 (match Json.member "reason" reply with
                 | Some (Json.Str r) -> Alcotest.(check string) (tagged ^ ": reason") reason r
                 | _ -> Alcotest.failf "%s: error reply lacks reason" tagged);
                 incr checked))
        results;
      Alcotest.(check int) "every reply checked"
        (n_clients * requests_per_client * 2)
        !checked;
      (* A malformed observation travels the same path and must fail with
         the exact error string of the direct engine. *)
      let bad = Array.make (n_landmarks - 3) 25.0 in
      let direct_err =
        match Octant.Pipeline.localize_one ctx (obs_of_rtts bad) with
        | Error e -> e
        | Ok _ -> Alcotest.fail "short RTT vector unexpectedly localized"
      in
      let fd, ic, oc = connect port in
      let reply = parse_reply (roundtrip ic oc (localize_line ~id:"bad" bad)) in
      Alcotest.(check string) "bad vector status" "error" (Protocol.status_of reply);
      (match Json.member "reason" reply with
      | Some (Json.Str r) -> Alcotest.(check string) "bad vector reason parity" direct_err r
      | _ -> Alcotest.fail "bad vector: no reason");
      Unix.close fd)

(* ---- audit round-trip ---- *)

let test_audit_roundtrip () =
  let ctx, rng, target_rtts = make_ctx () in
  let truth =
    Geo.Geodesy.coord
      ~lat:(Stats.Rng.uniform rng 36.0 42.0)
      ~lon:(Stats.Rng.uniform rng (-105.0) (-88.0))
  in
  let rtts = target_rtts truth in
  let config = { Server.default_config with Server.batch_delay_s = 0.0 } in
  let srv = Server.start ~config ~ctx () in
  Fun.protect
    ~finally:(fun () -> Server.stop srv)
    (fun () ->
      let fd, ic, oc = connect (Server.port srv) in
      let reply = parse_reply (roundtrip ic oc (localize_line ~audit:true ~id:"a" rtts)) in
      Unix.close fd;
      let direct_est, direct_audit = Octant.Pipeline.localize_audited ctx (obs_of_rtts rtts) in
      check_reply_matches "audited reply" direct_est reply;
      match Json.member "audit" reply with
      | Some (Json.List entries) ->
          Alcotest.(check int) "audit length" (List.length direct_audit) (List.length entries);
          List.iter2
            (fun (d : Obs.Telemetry.Audit.entry) e ->
              let str name =
                match Json.member name e with Some (Json.Str s) -> s | _ -> "<missing>"
              in
              Alcotest.(check string) "audit source" d.Obs.Telemetry.Audit.source (str "source");
              Alcotest.(check string) "audit polarity" d.Obs.Telemetry.Audit.polarity
                (str "polarity");
              check_field "audit" "weight" d.Obs.Telemetry.Audit.weight (fnum e "weight");
              check_field "audit" "cells_before"
                (float_of_int d.Obs.Telemetry.Audit.cells_before)
                (fnum e "cells_before");
              check_field "audit" "cells_after"
                (float_of_int d.Obs.Telemetry.Audit.cells_after)
                (fnum e "cells_after");
              Alcotest.(check bool) "audit shrank" d.Obs.Telemetry.Audit.shrank
                (match Json.member "shrank" e with Some (Json.Bool b) -> b | _ -> false))
            direct_audit entries
      | _ -> Alcotest.failf "no audit array in %s" (Json.to_string reply))

(* ---- deadline expiry ---- *)

let test_deadline_expiry () =
  let ctx, _, target_rtts = make_ctx () in
  let rtts = target_rtts (Geo.Geodesy.coord ~lat:39.0 ~lon:(-96.0)) in
  (* Coalescing window (250 ms) dwarfs the request deadline (50 ms): by
     dispatch time the request has expired and must say so. *)
  let config =
    { Server.default_config with Server.batch_delay_s = 0.25; cache_capacity = 0 }
  in
  let srv = Server.start ~config ~ctx () in
  Fun.protect
    ~finally:(fun () -> Server.stop srv)
    (fun () ->
      let fd, ic, oc = connect (Server.port srv) in
      let line =
        Json.to_string
          (Json.Obj
             [
               ("id", Json.Str "hurry");
               ("rtt_ms", Json.List (Array.to_list (Array.map Json.num rtts)));
               ("deadline_ms", Json.num 50.0);
             ])
      in
      let reply = parse_reply (roundtrip ic oc line) in
      Alcotest.(check string) "expired status" "expired" (Protocol.status_of reply);
      (* No deadline: the same request on the same connection succeeds. *)
      let reply2 = parse_reply (roundtrip ic oc (localize_line ~id:"calm" rtts)) in
      Alcotest.(check string) "no-deadline request ok" "ok" (Protocol.status_of reply2);
      Unix.close fd)

(* ---- load shedding ---- *)

let test_overload_shed () =
  let ctx, _, target_rtts = make_ctx () in
  let rtts = target_rtts (Geo.Geodesy.coord ~lat:40.0 ~lon:(-100.0)) in
  (* One queue slot and a long coalescing window: the first request parks
     in the queue; the second must be shed with an explicit reply, never
     a silent hang. *)
  let config =
    {
      Server.default_config with
      Server.max_queue = 1;
      batch_delay_s = 0.4;
      cache_capacity = 0;
    }
  in
  let srv = Server.start ~config ~ctx () in
  Fun.protect
    ~finally:(fun () -> Server.stop srv)
    (fun () ->
      let port = Server.port srv in
      let fd_a, ic_a, oc_a = connect port in
      send oc_a (localize_line ~id:"first" rtts);
      Thread.delay 0.1;
      (* Inside A's coalescing window: the queue is full. *)
      let fd_b, ic_b, oc_b = connect port in
      let t0 = Unix.gettimeofday () in
      let reply_b = parse_reply (roundtrip ic_b oc_b (localize_line ~id:"second" rtts)) in
      let shed_latency = Unix.gettimeofday () -. t0 in
      Alcotest.(check string) "second request shed" "overloaded" (Protocol.status_of reply_b);
      if shed_latency > 0.25 then
        Alcotest.failf "load shed took %.0f ms — not an admission-time refusal"
          (shed_latency *. 1000.0);
      let reply_a = parse_reply (input_line ic_a) in
      Alcotest.(check string) "queued request still answered" "ok" (Protocol.status_of reply_a);
      Unix.close fd_a;
      Unix.close fd_b)

(* ---- graceful drain: shutdown frame answers queued work ---- *)

let test_shutdown_drains () =
  let ctx, _, target_rtts = make_ctx () in
  let rtts = target_rtts (Geo.Geodesy.coord ~lat:38.0 ~lon:(-90.0)) in
  let config =
    { Server.default_config with Server.batch_delay_s = 0.3; cache_capacity = 0 }
  in
  let srv = Server.start ~config ~ctx () in
  let port = Server.port srv in
  let fd_a, ic_a, oc_a = connect port in
  send oc_a (localize_line ~id:"inflight" rtts);
  Thread.delay 0.05;
  (* The request is parked in the coalescing window; now ask the server
     to shut down. *)
  let fd_b, ic_b, oc_b = connect port in
  let reply_b = parse_reply (roundtrip ic_b oc_b {|{"op":"shutdown"}|}) in
  Alcotest.(check string) "shutdown acknowledged" "draining" (Protocol.status_of reply_b);
  Server.wait srv;
  (* Collect A's reply concurrently with the drain: stop joins the
     handler that writes it. *)
  let a_reply = ref None in
  let reader = Thread.create (fun () -> a_reply := Some (input_line ic_a)) () in
  Server.stop srv;
  Thread.join reader;
  (match !a_reply with
  | Some raw ->
      Alcotest.(check string) "queued request answered during drain" "ok"
        (Protocol.status_of (parse_reply raw))
  | None -> Alcotest.fail "no reply to the in-flight request");
  Unix.close fd_a;
  Unix.close fd_b

(* ---- control frames ---- *)

let test_control_frames () =
  let ctx, _, target_rtts = make_ctx () in
  let rtts = target_rtts (Geo.Geodesy.coord ~lat:41.0 ~lon:(-93.0)) in
  let config = { Server.default_config with Server.batch_delay_s = 0.0 } in
  (* The serve counters (like every telemetry counter) only record while
     collection is on — exactly how the daemon runs under --telemetry. *)
  Obs.Telemetry.reset ();
  Obs.Telemetry.enable ();
  let srv = Server.start ~config ~ctx () in
  Fun.protect
    ~finally:(fun () ->
      Server.stop srv;
      Obs.Telemetry.disable ();
      Obs.Telemetry.reset ())
    (fun () ->
      let fd, ic, oc = connect (Server.port srv) in
      let pong = parse_reply (roundtrip ic oc {|{"op":"ping"}|}) in
      Alcotest.(check string) "ping" "pong" (Protocol.status_of pong);
      ignore (parse_reply (roundtrip ic oc (localize_line ~id:"s1" rtts)));
      ignore (parse_reply (roundtrip ic oc (localize_line ~id:"s1" rtts)));
      let stats = parse_reply (roundtrip ic oc {|{"op":"stats"}|}) in
      Alcotest.(check string) "stats status" "stats" (Protocol.status_of stats);
      if fnum stats "requests" < 2.0 then
        Alcotest.failf "stats undercounts requests: %s" (Json.to_string stats);
      (match Json.member "cache" stats with
      | Some cache ->
          if fnum cache "hits" < 1.0 then
            Alcotest.failf "repeat request did not hit the cache: %s" (Json.to_string stats)
      | None -> Alcotest.fail "stats reply lacks cache block");
      if fnum stats "live_connections" < 1.0 then
        Alcotest.fail "stats reply does not count this connection";
      Unix.close fd)

(* ---- the wedge regression: a raising solver must not kill serving ---- *)

module Batcher = Octant_serve.Batcher

(* Before the fix, an exception escaping [run_batch] unwound the
   batcher's worker thread: every queued ticket hung in [await] forever,
   every later submit coalesced into a queue nobody drained, and stop
   deadlocked.  The contract now is that a solver fault resolves the
   affected tickets with an error reply and the daemon keeps serving. *)
let test_solver_fault_no_wedge () =
  let ctx, _, target_rtts = make_ctx () in
  let rtts = target_rtts (Geo.Geodesy.coord ~lat:39.5 ~lon:(-98.0)) in
  let real = Batcher.compute_of_ctx ctx in
  let boom = Atomic.make true in
  let compute =
    {
      Batcher.run_batch =
        (fun ~jobs obs ->
          if Atomic.exchange boom false then failwith "injected solver fault"
          else real.Batcher.run_batch ~jobs obs);
      run_audited = (fun _ -> failwith "injected audited fault");
    }
  in
  let config =
    { Server.default_config with Server.batch_delay_s = 0.0; cache_capacity = 0 }
  in
  let srv = Server.start ~config ~compute ~ctx () in
  Fun.protect
    ~finally:(fun () -> Server.stop srv) (* a wedged drain would hang the test here *)
    (fun () ->
      let fd, ic, oc = connect (Server.port srv) in
      let reply = parse_reply (roundtrip ic oc (localize_line ~id:"doomed" rtts)) in
      Alcotest.(check string) "faulted request answered with an error" "error"
        (Protocol.status_of reply);
      (match Json.member "reason" reply with
      | Some (Json.Str r) when String.length r >= 16 && String.sub r 0 16 = "solver exception"
        ->
          ()
      | _ ->
          Alcotest.failf "reason does not name the solver exception: %s"
            (Json.to_string reply));
      (* The same connection must keep working... *)
      let reply2 = parse_reply (roundtrip ic oc (localize_line ~id:"after" rtts)) in
      Alcotest.(check string) "daemon answers the next request" "ok"
        (Protocol.status_of reply2);
      (* ...the audited path faults independently, also without wedging... *)
      let reply3 = parse_reply (roundtrip ic oc (localize_line ~audit:true ~id:"aud" rtts)) in
      Alcotest.(check string) "audited fault answered with an error" "error"
        (Protocol.status_of reply3);
      (* ...and a fresh connection is served too. *)
      let fd2, ic2, oc2 = connect (Server.port srv) in
      let reply4 = parse_reply (roundtrip ic2 oc2 (localize_line ~id:"fresh" rtts)) in
      Alcotest.(check string) "fresh connection served after the fault" "ok"
        (Protocol.status_of reply4);
      Unix.close fd2;
      Unix.close fd)

(* ---- deadline runs out during the solve, not before it ---- *)

let test_deadline_during_solve () =
  let ctx, _, target_rtts = make_ctx () in
  let rtts = target_rtts (Geo.Geodesy.coord ~lat:37.0 ~lon:(-95.0)) in
  let real = Batcher.compute_of_ctx ctx in
  let compute =
    {
      Batcher.run_batch =
        (fun ~jobs obs ->
          Thread.delay 0.2;
          real.Batcher.run_batch ~jobs obs);
      run_audited = real.Batcher.run_audited;
    }
  in
  let config =
    { Server.default_config with Server.batch_delay_s = 0.0; cache_capacity = 0 }
  in
  let srv = Server.start ~config ~compute ~ctx () in
  Fun.protect
    ~finally:(fun () -> Server.stop srv)
    (fun () ->
      let fd, ic, oc = connect (Server.port srv) in
      let line =
        Json.to_string
          (Json.Obj
             [
               ("id", Json.Str "ran-out");
               ("rtt_ms", Json.List (Array.to_list (Array.map Json.num rtts)));
               ("deadline_ms", Json.num 60.0);
             ])
      in
      (* Admission and dispatch land well inside the 60 ms budget; the
         injected solve takes 200 ms.  Before the post-compute re-check
         the server reported a stale [ok] after the caller's budget was
         gone. *)
      let reply = parse_reply (roundtrip ic oc line) in
      Alcotest.(check string) "expired during the solve" "expired" (Protocol.status_of reply);
      Unix.close fd)

(* ---- binary frames answer bit-identically to JSON lines ---- *)

let write_all fd s =
  let n = String.length s in
  let off = ref 0 in
  while !off < n do
    off := !off + Unix.write_substring fd s !off (n - !off)
  done

let read_exactly fd n =
  let buf = Bytes.create n in
  let off = ref 0 in
  while !off < n do
    let k = Unix.read fd buf !off (n - !off) in
    if k = 0 then Alcotest.fail "peer closed mid-frame";
    off := !off + k
  done;
  Bytes.to_string buf

let binary_connect port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  write_all fd Protocol.Binary.magic;
  fd

let binary_roundtrip fd req =
  write_all fd (Protocol.Binary.frame (Protocol.Binary.encode_request req));
  let len = Protocol.Binary.decode_length (read_exactly fd Protocol.Binary.header_length) in
  match Protocol.Binary.decode_reply (read_exactly fd len) with
  | Ok json -> json
  | Error e -> Alcotest.failf "undecodable binary reply: %s" e

let test_binary_json_parity () =
  let ctx, rng, target_rtts = make_ctx () in
  (* No cache, so both codecs compute fresh and the [cached] member can't
     differ between the two passes. *)
  let config =
    { Server.default_config with Server.batch_delay_s = 0.0; cache_capacity = 0 }
  in
  let srv = Server.start ~config ~ctx () in
  Fun.protect
    ~finally:(fun () -> Server.stop srv)
    (fun () ->
      let port = Server.port srv in
      let jfd, ic, oc = connect port in
      let bfd = binary_connect port in
      let check_pair what json_line bin_req =
        let jreply = parse_reply (roundtrip ic oc json_line) in
        let breply = binary_roundtrip bfd bin_req in
        if not (Json.equal jreply breply) then
          Alcotest.failf "%s: codecs diverge\n  json:   %s\n  binary: %s" what
            (Json.to_string jreply) (Json.to_string breply)
      in
      for i = 1 to 4 do
        let truth =
          Geo.Geodesy.coord
            ~lat:(Stats.Rng.uniform rng 34.0 44.0)
            ~lon:(Stats.Rng.uniform rng (-112.0) (-82.0))
        in
        let rtts = target_rtts truth in
        let audit = i mod 2 = 0 in
        let id = Printf.sprintf "pair-%d" i in
        let req =
          {
            Protocol.id = Json.Str id;
            rtt_ms = rtts;
            whois = None;
            deadline_ms = None;
            want_audit = audit;
          }
        in
        check_pair id (localize_line ~audit ~id rtts) (Protocol.Localize req)
      done;
      (* A whois hint travels as raw float bits and must not perturb
         parity either. *)
      let rtts = target_rtts (Geo.Geodesy.coord ~lat:40.0 ~lon:(-100.0)) in
      let hint = Geo.Geodesy.coord ~lat:40.25 ~lon:(-100.125) in
      let hinted_line =
        Json.to_string
          (Json.Obj
             [
               ("id", Json.Str "hinted");
               ("rtt_ms", Json.List (Array.to_list (Array.map Json.num rtts)));
               ( "whois",
                 Json.Obj
                   [
                     ("lat", Json.num hint.Geo.Geodesy.lat);
                     ("lon", Json.num hint.Geo.Geodesy.lon);
                   ] );
             ])
      in
      let hinted_req =
        {
          Protocol.id = Json.Str "hinted";
          rtt_ms = rtts;
          whois = Some hint;
          deadline_ms = None;
          want_audit = false;
        }
      in
      check_pair "whois hint" hinted_line (Protocol.Localize hinted_req);
      (* Error and control paths too. *)
      let bad = Array.make (n_landmarks - 3) 25.0 in
      let bad_req =
        {
          Protocol.id = Json.Str "bad";
          rtt_ms = bad;
          whois = None;
          deadline_ms = None;
          want_audit = false;
        }
      in
      check_pair "bad vector" (localize_line ~id:"bad" bad) (Protocol.Localize bad_req);
      check_pair "ping" {|{"op":"ping"}|} Protocol.Ping;
      Unix.close bfd;
      Unix.close jfd)

(* ---- a pathological id is one request's problem, not the loop's ---- *)

(* Regression: the binary codec carried ids behind a 16-bit length, so a
   legal frame whose id re-serializes past 65535 bytes made reply
   encoding raise on the event-loop thread (inline replies) and killed
   the server.  Both codecs must now echo such ids and keep serving. *)
let test_huge_id_live () =
  let ctx, _, target_rtts = make_ctx () in
  let rtts = target_rtts (Geo.Geodesy.coord ~lat:41.0 ~lon:(-101.0)) in
  let huge_id = Json.List (List.init 5_000 (fun _ -> Json.num 1e300)) in
  assert (String.length (Json.to_string huge_id) > 65535);
  let config = { Server.default_config with Server.batch_delay_s = 0.0 } in
  let srv = Server.start ~config ~ctx () in
  Fun.protect
    ~finally:(fun () -> Server.stop srv)
    (fun () ->
      let port = Server.port srv in
      let req =
        {
          Protocol.id = huge_id;
          rtt_ms = rtts;
          whois = None;
          deadline_ms = None;
          want_audit = false;
        }
      in
      (* Binary, the codec with the length fields. *)
      let bfd = binary_connect port in
      let breply = binary_roundtrip bfd (Protocol.Localize req) in
      Alcotest.(check string) "binary huge-id request ok" "ok" (Protocol.status_of breply);
      (match Json.member "id" breply with
      | Some id -> Alcotest.(check bool) "binary id echoed" true (Json.equal huge_id id)
      | None -> Alcotest.fail "binary reply lost the id");
      Alcotest.(check string) "binary connection still serving" "pong"
        (Protocol.status_of (binary_roundtrip bfd Protocol.Ping));
      Unix.close bfd;
      (* JSON twin: same request as a (large) line. *)
      let line =
        Json.to_string
          (Json.Obj
             [
               ("id", huge_id);
               ("rtt_ms", Json.List (Array.to_list (Array.map Json.num rtts)));
             ])
      in
      let fd, ic, oc = connect port in
      let jreply = parse_reply (roundtrip ic oc line) in
      Alcotest.(check string) "json huge-id request ok" "ok" (Protocol.status_of jreply);
      (match Json.member "id" jreply with
      | Some id -> Alcotest.(check bool) "json id echoed" true (Json.equal huge_id id)
      | None -> Alcotest.fail "json reply lost the id");
      Unix.close fd)

(* ---- the live-connection cap refuses instead of wedging ---- *)

(* [Unix.select] dies with EINVAL past FD_SETSIZE, so the server caps
   live connections at accept.  Over-cap connections are closed
   immediately; admitted ones keep full service; a freed slot is
   reusable. *)
let test_connection_cap () =
  let ctx, _, target_rtts = make_ctx () in
  let rtts = target_rtts (Geo.Geodesy.coord ~lat:38.0 ~lon:(-96.0)) in
  let config =
    { Server.default_config with Server.batch_delay_s = 0.0; max_connections = 2 }
  in
  let srv = Server.start ~config ~ctx () in
  Fun.protect
    ~finally:(fun () -> Server.stop srv)
    (fun () ->
      let port = Server.port srv in
      let fd1, ic1, oc1 = connect port in
      let fd2, ic2, oc2 = connect port in
      (* Ping both so the server has registered them before the third
         connection arrives. *)
      Alcotest.(check string) "conn 1 served" "pong"
        (Protocol.status_of (parse_reply (roundtrip ic1 oc1 {|{"op":"ping"}|})));
      Alcotest.(check string) "conn 2 served" "pong"
        (Protocol.status_of (parse_reply (roundtrip ic2 oc2 {|{"op":"ping"}|})));
      (* The third connection is over the cap: closed at accept, without
         a reply. *)
      let fd3, ic3, _ = connect port in
      (match input_line ic3 with
      | line -> Alcotest.failf "over-cap connection was served: %s" line
      | exception (End_of_file | Sys_error _) -> ());
      (try Unix.close fd3 with Unix.Unix_error _ -> ());
      (* Refusing the third client never degrades the admitted two. *)
      let reply = parse_reply (roundtrip ic1 oc1 (localize_line ~id:"capped" rtts)) in
      Alcotest.(check string) "admitted conn still localizes" "ok"
        (Protocol.status_of reply);
      (* Closing an admitted connection frees its slot. *)
      Unix.close fd2;
      let deadline = Unix.gettimeofday () +. 5.0 in
      while Server.live_connections srv > 1 && Unix.gettimeofday () < deadline do
        Thread.delay 0.01
      done;
      let fd4, ic4, oc4 = connect port in
      Alcotest.(check string) "freed slot is reusable" "pong"
        (Protocol.status_of (parse_reply (roundtrip ic4 oc4 {|{"op":"ping"}|})));
      Unix.close fd4;
      Unix.close fd1)

(* ---- slow-loris and idle connections cost fds, not threads ---- *)

let test_slow_loris () =
  let ctx, _, target_rtts = make_ctx () in
  let rtts = target_rtts (Geo.Geodesy.coord ~lat:40.5 ~lon:(-99.0)) in
  let config = { Server.default_config with Server.batch_delay_s = 0.0 } in
  let srv = Server.start ~config ~ctx () in
  Fun.protect
    ~finally:(fun () -> Server.stop srv)
    (fun () ->
      let port = Server.port srv in
      let sfd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      Unix.connect sfd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
      let line = localize_line ~id:"slow" rtts ^ "\n" in
      let dripper =
        Thread.create
          (fun () ->
            String.iter
              (fun c ->
                write_all sfd (String.make 1 c);
                Thread.delay 0.002)
              line)
          ()
      in
      (* While the loris drips its request a byte at a time, fast clients
         must be served promptly — a thread-per-connection reader parked
         on the slow socket would not show here, but a blocked event loop
         would. *)
      for i = 1 to 3 do
        let fd, ic, oc = connect port in
        let t0 = Unix.gettimeofday () in
        let reply =
          parse_reply (roundtrip ic oc (localize_line ~id:(Printf.sprintf "fast-%d" i) rtts))
        in
        let dt = Unix.gettimeofday () -. t0 in
        Alcotest.(check string) "fast client served" "ok" (Protocol.status_of reply);
        if dt > 1.0 then
          Alcotest.failf "fast client waited %.0f ms behind a slow-loris" (dt *. 1000.0);
        Unix.close fd
      done;
      Thread.join dripper;
      (* The trickled request itself still completes once its newline
         finally lands. *)
      let ic = Unix.in_channel_of_descr sfd in
      let reply = parse_reply (input_line ic) in
      Alcotest.(check string) "slow-loris request eventually ok" "ok"
        (Protocol.status_of reply);
      Unix.close sfd)

let test_idle_connections () =
  let ctx, _, target_rtts = make_ctx () in
  let rtts = target_rtts (Geo.Geodesy.coord ~lat:36.5 ~lon:(-87.0)) in
  let config = { Server.default_config with Server.batch_delay_s = 0.0 } in
  let srv = Server.start ~config ~ctx () in
  Fun.protect
    ~finally:(fun () -> Server.stop srv)
    (fun () ->
      let port = Server.port srv in
      let n_idle = 50 in
      let idle =
        Array.init n_idle (fun _ ->
            let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
            Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
            fd)
      in
      let wait_for_conns target =
        let deadline = Unix.gettimeofday () +. 5.0 in
        while Server.live_connections srv <> target && Unix.gettimeofday () < deadline do
          Thread.delay 0.01
        done
      in
      wait_for_conns n_idle;
      Alcotest.(check int) "all idle connections accepted" n_idle
        (Server.live_connections srv);
      (* Fifty parked fds don't occupy any serving capacity. *)
      let fd, ic, oc = connect port in
      let reply = parse_reply (roundtrip ic oc (localize_line ~id:"active" rtts)) in
      Alcotest.(check string) "served among idlers" "ok" (Protocol.status_of reply);
      Unix.close fd;
      Array.iter Unix.close idle;
      wait_for_conns 0;
      Alcotest.(check int) "idle connections reaped on close" 0
        (Server.live_connections srv))

(* ---- a peer that hangs up costs its connection, not the process ---- *)

(* Regression: no server ignored SIGPIPE, so a client that pipelined
   cached requests and closed without reading turned the server's next
   reply into EPIPE, and the signal killed the process embedding the
   server. *)
let test_hangup_survival () =
  let ctx, _, target_rtts = make_ctx () in
  let rtts = target_rtts (Geo.Geodesy.coord ~lat:39.0 ~lon:(-97.0)) in
  let config = { Server.default_config with Server.batch_delay_s = 0.0 } in
  let srv = Server.start ~config ~ctx () in
  Fun.protect
    ~finally:(fun () -> Server.stop srv)
    (fun () ->
      let port = Server.port srv in
      let fd, ic, oc = connect port in
      ignore (roundtrip ic oc (localize_line ~id:"warm" rtts));
      Unix.close fd;
      (* Every frame below is a cache hit, answered inline. *)
      let burst =
        String.concat ""
          (List.init 2000 (fun i -> localize_line ~id:(string_of_int i) rtts ^ "\n"))
      in
      for _ = 1 to 200 do
        let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
        Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
        (try write_all fd burst with Unix.Unix_error _ -> ());
        Unix.close fd
      done;
      let fd, ic, oc = connect port in
      Alcotest.(check string) "ping answered after 200 hang-ups" "pong"
        (Protocol.status_of (parse_reply (roundtrip ic oc {|{"op":"ping"}|})));
      Unix.close fd)

(* ---- stop drains what clients pipelined before it ---- *)

(* Requests pipelined when [stop] is called are all answered ([ok] or an
   explicit error), then the connection closes.  The daemon used to stop
   reading at once and close with unread input, which reset the
   connection and destroyed the replies it owed. *)
let test_stop_drains_pipelined () =
  let ctx, rng, target_rtts = make_ctx () in
  let srv = Server.start ~ctx () in
  let fd, ic, oc = connect (Server.port srv) in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () ->
      let n = 64 in
      for i = 0 to n - 1 do
        let truth =
          Geo.Geodesy.coord
            ~lat:(Stats.Rng.uniform rng 34.0 44.0)
            ~lon:(Stats.Rng.uniform rng (-112.0) (-82.0))
        in
        send oc (localize_line ~id:(string_of_int i) (target_rtts truth))
      done;
      let stopper = Thread.create (fun () -> Server.stop srv) () in
      for i = 0 to n - 1 do
        match input_line ic with
        | raw ->
            let status = Protocol.status_of (parse_reply raw) in
            if status <> "ok" && status <> "error" then
              Alcotest.failf "reply %d: unexpected status %S during drain" i status
        | exception End_of_file ->
            Alcotest.failf "connection closed with %d replies still owed" (n - i)
      done;
      (match input_line ic with
      | _ -> Alcotest.fail "expected EOF after drain"
      | exception End_of_file -> ());
      Thread.join stopper)

(* A client whose connect returned before [stop], but which the loop has
   not accepted yet, is owed its replies too.  The handler holds the loop
   thread on the first client's request; meanwhile a second client
   connects and pipelines pings, and another thread calls [stop].  The
   drain used to drop the listener at once, so the second client was
   never read, and closing the listener reset it. *)
let test_stop_accepts_backlog () =
  let module Reactor = Octant_serve.Reactor in
  let module Metrics = Octant_serve.Metrics in
  let reactor =
    Reactor.create ~host:"127.0.0.1" ~port:0 ~max_connections:8 ~max_frame_bytes:65536
      ~counters:
        {
          Reactor.connections = Metrics.connections;
          rejected_connections = Metrics.rejected_connections;
          loop_failures = Metrics.loop_failures;
          encode_failures = Metrics.encode_failures;
        }
      ()
  in
  let lock = Mutex.create () and changed = Condition.create () in
  let held = ref false and released = ref false in
  let on_request conn req =
    Mutex.lock lock;
    if not !held then begin
      held := true;
      Condition.broadcast changed;
      while not !released do
        Condition.wait changed lock
      done
    end;
    Mutex.unlock lock;
    Reactor.reply reactor conn (match req with Ok _ -> Protocol.pong_reply | Error e -> e)
  in
  Reactor.run reactor { Reactor.on_request; in_flight = (fun () -> 0); on_drained = ignore };
  let port = Reactor.port reactor in
  let fd1, ic1, oc1 = connect port in
  send oc1 {|{"op":"ping"}|};
  Mutex.lock lock;
  while not !held do
    Condition.wait changed lock
  done;
  Mutex.unlock lock;
  let fd2, ic2, oc2 = connect port in
  Fun.protect
    ~finally:(fun () ->
      Unix.close fd1;
      Unix.close fd2)
    (fun () ->
      let n = 8 in
      for _ = 1 to n do
        send oc2 {|{"op":"ping"}|}
      done;
      let stopper = Thread.create (fun () -> Reactor.stop reactor) () in
      while not (Reactor.draining reactor) do
        Thread.delay 0.001
      done;
      Mutex.lock lock;
      released := true;
      Condition.broadcast changed;
      Mutex.unlock lock;
      Alcotest.(check string) "held request answered" "pong"
        (Protocol.status_of (parse_reply (input_line ic1)));
      for i = 0 to n - 1 do
        match input_line ic2 with
        | raw ->
            Alcotest.(check string) "queued client answered" "pong"
              (Protocol.status_of (parse_reply raw))
        | exception (End_of_file | Sys_error _) ->
            Alcotest.failf "queued client lost %d of its %d replies" (n - i) n
      done;
      (match input_line ic2 with
      | _ -> Alcotest.fail "expected EOF after drain"
      | exception End_of_file -> ());
      Thread.join stopper)

(* The drain waits for input to go quiet only inside its bounded flush
   window.  A client pinging every 50 ms through the whole stop still has
   its pings answered, and stop returns once the window closes instead of
   waiting for a quiet spell that never comes. *)
let test_stop_bounded_under_input () =
  let ctx, _, _ = make_ctx () in
  let srv = Server.start ~ctx () in
  let fd, ic, oc = connect (Server.port srv) in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () ->
      let stopping = Atomic.make false and pongs_in_drain = Atomic.make 0 in
      let pinger =
        Thread.create
          (fun () ->
            try
              while true do
                let reply = parse_reply (roundtrip ic oc {|{"op":"ping"}|}) in
                if Protocol.status_of reply = "pong" && Atomic.get stopping then
                  Atomic.incr pongs_in_drain;
                Thread.delay 0.05
              done
            with _ -> ())
          ()
      in
      Thread.delay 0.2;
      Atomic.set stopping true;
      let t0 = Unix.gettimeofday () in
      Server.stop srv;
      let dt = Unix.gettimeofday () -. t0 in
      Thread.join pinger;
      if dt > 6.5 then Alcotest.failf "stop took %.1f s while a client kept sending" dt;
      Alcotest.(check bool) "pings answered during the drain" true (Atomic.get pongs_in_drain > 0))

(* ---- a raising completion callback cannot unwind the batcher ---- *)

let test_raising_callback () =
  let ctx, _, target_rtts = make_ctx () in
  let obs = obs_of_rtts (target_rtts (Geo.Geodesy.coord ~lat:38.5 ~lon:(-94.0))) in
  let b =
    Batcher.create ~compute:(Batcher.compute_of_ctx ctx) ~max_queue:4 ~max_batch:1
      ~batch_delay_s:0.0 ()
  in
  let ran = Atomic.make 0 in
  let submit on_done =
    match Batcher.submit b ~obs ~want_audit:false ~on_done () with
    | `Queued -> ()
    | `Overloaded | `Closed -> Alcotest.fail "submit refused"
  in
  submit (fun _ -> failwith "callback fault");
  submit (fun _ -> Atomic.incr ran);
  Batcher.drain b;
  Alcotest.(check int) "the next item still resolves" 1 (Atomic.get ran)

let suite =
  [
    ( "serve",
      [
        Alcotest.test_case "concurrent e2e replies bit-identical to direct batch" `Slow
          test_e2e_bit_identical;
        Alcotest.test_case "audit round-trips field-for-field" `Quick test_audit_roundtrip;
        Alcotest.test_case "deadline expiry is explicit" `Quick test_deadline_expiry;
        Alcotest.test_case "overload sheds with an explicit reply" `Quick test_overload_shed;
        Alcotest.test_case "shutdown frame drains queued work" `Quick test_shutdown_drains;
        Alcotest.test_case "ping and stats frames" `Quick test_control_frames;
        Alcotest.test_case "solver fault answers instead of wedging" `Quick
          test_solver_fault_no_wedge;
        Alcotest.test_case "deadline expires during the solve" `Quick
          test_deadline_during_solve;
        Alcotest.test_case "binary frames bit-identical to JSON lines" `Quick
          test_binary_json_parity;
        Alcotest.test_case "pathological ids answered on both codecs" `Quick
          test_huge_id_live;
        Alcotest.test_case "connection cap refuses instead of wedging" `Quick
          test_connection_cap;
        Alcotest.test_case "slow-loris client does not stall others" `Quick test_slow_loris;
        Alcotest.test_case "idle connections cost nothing" `Quick test_idle_connections;
        Alcotest.test_case "a peer that hangs up does not kill the process" `Quick
          test_hangup_survival;
        Alcotest.test_case "stop drains pipelined requests" `Quick test_stop_drains_pipelined;
        Alcotest.test_case "stop answers clients still in the listen backlog" `Quick
          test_stop_accepts_backlog;
        Alcotest.test_case "stop returns while a client keeps sending" `Quick
          test_stop_bounded_under_input;
        Alcotest.test_case "a raising reply callback does not unwind the batcher" `Quick
          test_raising_callback;
      ] );
  ]
