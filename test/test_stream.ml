(* Streaming re-localization: the prefix-parity safety rail.

   The contract under test (ROADMAP item 1): at every prefix of an
   observation feed, the session's incremental estimate is bit-identical
   to a from-scratch batch recompute over the same constraint log —
   folding performs literally the same [Solver.add] sequence a replay
   would, so nothing may diverge, ever.

   Enforced at three layers here: qcheck over random feeds (out-of-order
   epochs, duplicate-landmark deltas, interleaved retires), a golden
   stream trace (regenerate with
   OCTANT_STREAM_GOLDEN_WRITE=$PWD/test/golden/stream_golden.txt), and a
   live daemon end to end on both codecs — including the result-cache
   invalidation rule: an update is never answered from cache, and a
   cached one-shot reply dies the moment a streamed delta moves the
   session past it. *)

module Json = Octant_serve.Json
module Protocol = Octant_serve.Protocol
module Server = Octant_serve.Server
module Pipeline = Octant.Pipeline
module Session = Octant.Pipeline.Session
module World = Test_support.World

let same_estimate (a : Octant.Estimate.t) (b : Octant.Estimate.t) =
  let open Octant.Estimate in
  a.point = b.point && a.point_plane = b.point_plane && a.area_km2 = b.area_km2
  && a.top_weight = b.top_weight && a.cells_used = b.cells_used
  && a.constraints_used = b.constraints_used
  && a.target_height_ms = b.target_height_ms

let check_parity what session est =
  if not (same_estimate est (Session.replay_estimate session)) then
    Alcotest.failf "%s: incremental estimate diverges from from-scratch replay" what

(* ---- shared fixture world (12 landmarks) ---- *)

let fixture = lazy (World.make (World.spec ~seed:77001 ()))
let fixture_ctx = lazy (World.context (Lazy.force fixture))

let fixture_base =
  lazy
    (let w = Lazy.force fixture in
     World.observe w (World.random_truth w))

(* ---- qcheck: parity at every prefix of a random feed ---- *)

type op = Fold of (int * float) array * int | Retire of int

let print_op = function
  | Fold (entries, epoch) ->
      Printf.sprintf "fold@%d[%s]" epoch
        (String.concat ";"
           (Array.to_list
              (Array.map (fun (i, r) -> Printf.sprintf "%d:%.3f" i r) entries)))
  | Retire upto -> Printf.sprintf "retire<=%d" upto

let print_ops ops = String.concat " " (List.map print_op ops)

(* RTTs on a 1/8 ms grid: positive, representable, no quantization drift.
   Epochs are drawn from a small range so feeds naturally arrive out of
   order; a biased coin doubles a delta's head entry so the same landmark
   repeats within one delta (an independent second measurement). *)
let op_gen =
  let open QCheck.Gen in
  let entry = pair (int_range 0 11) (map (fun i -> 5.0 +. (float_of_int i /. 8.0)) (int_range 0 600)) in
  let fold_gen =
    map3
      (fun entries epoch dup ->
        let entries = Array.of_list entries in
        let entries =
          if dup && Array.length entries > 0 then Array.append entries [| entries.(0) |]
          else entries
        in
        Fold (entries, epoch))
      (list_size (int_range 1 3) entry)
      (int_range 0 5) bool
  in
  frequency [ (4, fold_gen); (1, map (fun upto -> Retire upto) (int_range (-1) 4)) ]

let ops_arb =
  QCheck.make ~print:print_ops QCheck.Gen.(list_size (int_range 0 8) op_gen)

let prop_prefix_parity =
  QCheck.Test.make ~count:30 ~name:"prefix parity: estimate = replay at every prefix"
    ops_arb
    (fun ops ->
      let ctx = Lazy.force fixture_ctx in
      let session, est0 = Session.create ctx (Lazy.force fixture_base) in
      if not (same_estimate est0 (Session.replay_estimate session)) then
        QCheck.Test.fail_report "base estimate diverges from replay";
      List.iteri
        (fun i op ->
          let est =
            match op with
            | Fold (d_rtts, d_epoch) -> Session.fold session { Session.d_rtts; d_epoch }
            | Retire upto -> Session.retire session ~upto_epoch:upto
          in
          if not (same_estimate est (Session.replay_estimate session)) then
            QCheck.Test.fail_reportf "prefix %d (%s): estimate diverges from replay" i
              (print_op op))
        ops;
      true)

(* ---- deterministic parity against localize_batch at jobs 1 and 4 ---- *)

(* A session's base estimate is the one-shot answer, so it must equal the
   batch engine's slot for the same observation at every domain count —
   the parity the daemon's Update path leans on when a shard re-fans. *)
let test_parity_vs_batch_jobs () =
  let w = Lazy.force fixture in
  let ctx = Lazy.force fixture_ctx in
  let obs = Array.init 4 (fun _ -> World.observe w (World.random_truth w)) in
  let created = Array.map (fun o -> Session.create ctx o) obs in
  List.iter
    (fun jobs ->
      let batch = Pipeline.localize_batch ~jobs ctx obs in
      Array.iteri
        (fun i result ->
          match result with
          | Error e -> Alcotest.failf "jobs=%d target %d: batch error %s" jobs i e
          | Ok est ->
              if not (same_estimate (snd created.(i)) est) then
                Alcotest.failf "jobs=%d target %d: session base diverges from batch" jobs i)
        batch)
    [ 1; 4 ];
  (* Then stream the same fixed feed into every session: parity must
     survive each prefix on each of them. *)
  Array.iteri
    (fun t (session, _) ->
      List.iteri
        (fun i (lm, rtt, epoch) ->
          let est = Session.fold session { Session.d_rtts = [| (lm, rtt) |]; d_epoch = epoch } in
          check_parity (Printf.sprintf "target %d fold %d" t i) session est)
        [ (0, 21.5, 1); (5, 44.25, 2); (0, 20.0, 1); (11, 63.125, 3) ];
      let est = Session.retire session ~upto_epoch:1 in
      check_parity (Printf.sprintf "target %d retire" t) session est)
    created

(* ---- out-of-order epochs, duplicates, and retire accounting ---- *)

let test_out_of_order_epochs_and_retire () =
  let ctx = Lazy.force fixture_ctx in
  let session, _ = Session.create ~epoch:0 ctx (Lazy.force fixture_base) in
  let feed =
    [
      (* Epochs arrive 5, 1, 3 — log order is application order. *)
      { Session.d_rtts = [| (2, 31.5); (7, 58.25) |]; d_epoch = 5 };
      (* Same landmark twice in one delta: two independent measurements. *)
      { Session.d_rtts = [| (4, 27.0); (4, 29.5) |]; d_epoch = 1 };
      { Session.d_rtts = [| (9, 40.125) |]; d_epoch = 3 };
    ]
  in
  List.iteri
    (fun i delta ->
      let est = Session.fold session delta in
      check_parity (Printf.sprintf "fold %d" i) session est)
    feed;
  Alcotest.(check int) "three folds recorded" 3 (Session.folds session);
  Alcotest.(check int) "last epoch is the max seen" 5 (Session.last_epoch session);
  let before = Session.live_constraints session in
  let est = Session.retire session ~upto_epoch:3 in
  check_parity "retire" session est;
  Alcotest.(check int) "one retire recorded" 1 (Session.retires session);
  let log = Session.constraint_log session in
  Alcotest.(check int) "log and live count agree" (Session.live_constraints session)
    (List.length log);
  if Session.live_constraints session >= before then
    Alcotest.fail "retire dropped nothing (epochs 0,1,3 should die)";
  List.iter
    (fun c ->
      if c.Octant.Constr.epoch <= 3 then
        Alcotest.failf "constraint with epoch %d survived retire <= 3" c.Octant.Constr.epoch)
    log

(* ---- hardened sessions ---- *)

(* Every field but the [solve_time_s] stopwatch. *)
let identical (a : Octant.Estimate.t) (b : Octant.Estimate.t) =
  { a with Octant.Estimate.solve_time_s = 0.0 } = { b with Octant.Estimate.solve_time_s = 0.0 }

(* Under hardening a session pins each landmark's consistency scale at
   creation and applies it to every streamed delta from that landmark.
   Two landmarks report deflated RTTs, so the scorer has someone to
   down-weight and the pinned scales are not all 1.0. *)
let test_hardened_session () =
  let w = Lazy.force fixture in
  let plain = Lazy.force fixture_ctx in
  let ctx = Pipeline.with_harden plain (Some Octant.Harden.default) in
  let n = Array.length w.World.landmarks in
  let liar = 1 in
  let constraints ctx obs = (Pipeline.prepare_target ctx obs).Pipeline.constraints in
  for t = 0 to 2 do
    let rtts = (World.observe w (World.random_truth w)).Pipeline.target_rtt_ms in
    List.iter (fun i -> rtts.(i) <- 0.35 *. rtts.(i)) [ liar; 4 ];
    let obs = Pipeline.observations_of_rtts rtts in
    let session, est0 = Session.create ctx obs in
    if not (identical est0 (Pipeline.localize ctx obs)) then
      Alcotest.failf "target %d: hardened session base diverges from localize" t;
    let rng = Stats.Rng.create (9100 + t) in
    let entry () =
      let lm = Stats.Rng.int rng n in
      (lm, rtts.(lm) *. Stats.Rng.uniform rng 0.9 1.1)
    in
    for epoch = 1 to 8 do
      let est = Session.fold session { Session.d_rtts = [| entry (); entry () |]; d_epoch = epoch } in
      check_parity (Printf.sprintf "target %d fold %d" t epoch) session est
    done;
    (* Re-sending the liar's base RTT must rebuild its base constraints
       weight for weight, at less than the unhardened weight: the delta
       reuses the pinned scale. *)
    ignore (Session.fold session { Session.d_rtts = [| (liar, rtts.(liar)) |]; d_epoch = 9 });
    let log = Session.constraint_log session in
    let source = (List.find (fun (c : Octant.Constr.t) -> c.Octant.Constr.epoch = 9) log).Octant.Constr.source in
    let weights epoch cs =
      List.filter_map
        (fun (c : Octant.Constr.t) ->
          if c.Octant.Constr.epoch = epoch && c.Octant.Constr.source = source then
            Some c.Octant.Constr.weight
          else None)
        cs
    in
    let repeated = weights 9 log in
    if repeated <> weights 0 log then
      Alcotest.failf "target %d: repeated liar RTT carries different weights than its base" t;
    if List.fold_left Float.max 0.0 repeated >= List.fold_left Float.max 0.0 (weights 0 (constraints plain obs))
    then Alcotest.failf "target %d: hardening did not down-weight the liar" t;
    let est = Session.retire session ~upto_epoch:4 in
    check_parity (Printf.sprintf "target %d retire" t) session est;
    if not (identical (Session.estimate session) (Session.replay_estimate session)) then
      Alcotest.failf "target %d: hardened session diverges from its replay" t
  done

(* ---- bounded session registry ---- *)

(* The daemon and [octant_cli stream] keep sessions in a plain [Lru]
   keyed by target id; [add] names the victim so the daemon can count it
   and forget its base key. *)
let test_sessions_registry () =
  let ctx = Lazy.force fixture_ctx in
  let fresh () = fst (Session.create ctx (Lazy.force fixture_base)) in
  let reg = Octant_serve.Lru.create ~capacity:2 () in
  let add id = Octant_serve.Lru.add reg id (fresh ()) in
  let live () = Octant_serve.Lru.length reg in
  Alcotest.(check (option string)) "first insert fits" None (add "a");
  Alcotest.(check (option string)) "second insert fits" None (add "b");
  (* Touch "a" so "b" is the LRU victim. *)
  Alcotest.(check bool) "find touches recency" true (Octant_serve.Lru.find reg "a" <> None);
  Alcotest.(check (option string)) "third insert evicts the LRU" (Some "b") (add "c");
  Alcotest.(check bool) "evicted session is gone" true (Octant_serve.Lru.find reg "b" = None);
  Alcotest.(check int) "live stays at capacity" 2 (live ());
  (* Re-inserting a live id replaces in place: no eviction. *)
  Alcotest.(check (option string)) "replace does not evict" None (add "c");
  Alcotest.(check int) "replace keeps occupancy" 2 (live ());
  ignore (Octant_serve.Lru.invalidate_key reg "a");
  Alcotest.(check int) "remove shrinks occupancy" 1 (live ());
  Alcotest.(check bool) "removed session is gone" true (Octant_serve.Lru.find reg "a" = None)

(* ---- golden stream trace ---- *)

let golden_path = "golden/stream_golden.txt"

let render_golden () =
  let w = World.make (World.spec ~seed:81101 ()) in
  let ctx = World.context w in
  let obs = World.observe w (World.random_truth w) in
  let session, est0 = Session.create ~epoch:0 ctx obs in
  let line kind epoch (est : Octant.Estimate.t) =
    Printf.sprintf "%s epoch %d live %d cells %d estimate %.9f %.9f %.6f" kind epoch
      (Session.live_constraints session)
      (Session.cells_live session) est.Octant.Estimate.point.Geo.Geodesy.lat
      est.Octant.Estimate.point.Geo.Geodesy.lon est.Octant.Estimate.area_km2
  in
  check_parity "golden base" session est0;
  let rng = Stats.Rng.create 4242 in
  let lines = ref [ line "base" 0 est0 ] in
  for epoch = 1 to 10 do
    let entry () =
      let lm = Stats.Rng.int rng (Array.length w.World.landmarks) in
      (lm, Protocol.quantize_rtt (Stats.Rng.uniform rng 12.0 70.0))
    in
    let est = Session.fold session { Session.d_rtts = [| entry (); entry () |]; d_epoch = epoch } in
    check_parity (Printf.sprintf "golden fold %d" epoch) session est;
    lines := line "fold" epoch est :: !lines;
    if epoch mod 4 = 0 then begin
      let upto = epoch - 4 in
      let est = Session.retire session ~upto_epoch:upto in
      check_parity (Printf.sprintf "golden retire %d" upto) session est;
      lines := line "retire" upto est :: !lines
    end
  done;
  List.rev !lines

let test_stream_golden () =
  match Sys.getenv_opt "OCTANT_STREAM_GOLDEN_WRITE" with
  | Some path ->
      Test_support.Golden.write_lines path (render_golden ());
      Printf.printf "stream golden fixture written to %s\n" path
  | None ->
      Test_support.Golden.check ~what:"stream trace"
        (Test_support.Golden.read_lines golden_path)
        (render_golden ())

(* ---- daemon end to end: both codecs, mirrored session ---- *)

let mk_update ?(id = Json.Null) ~target ~epoch ?base ?(delta = [||]) ?retire () =
  {
    Protocol.u_id = id;
    u_target = target;
    u_epoch = epoch;
    u_base = base;
    u_delta = delta;
    u_retire_upto = retire;
    u_whois = None;
  }

let update_line (u : Protocol.update) =
  Json.to_string
    (Json.Obj
       ([ ("op", Json.Str "update"); ("id", u.Protocol.u_id);
          ("target_id", Json.Str u.Protocol.u_target);
          ("epoch", Json.Num (float_of_int u.Protocol.u_epoch)) ]
       @ (match u.Protocol.u_base with
         | Some rtts ->
             [ ("rtt_ms", Json.List (Array.to_list (Array.map Json.num rtts))) ]
         | None -> [])
       @ (if Array.length u.Protocol.u_delta = 0 then []
          else
            [
              ( "delta",
                Json.List
                  (Array.to_list
                     (Array.map
                        (fun (i, r) -> Json.List [ Json.Num (float_of_int i); Json.num r ])
                        u.Protocol.u_delta)) );
            ])
       @
       match u.Protocol.u_retire_upto with
       | Some upto -> [ ("retire_upto", Json.Num (float_of_int upto)) ]
       | None -> []))

(* One feed, three observers: a JSON client (target "jt"), a binary
   client (target "bt"), and a direct in-process mirror session over the
   same quantized inputs.  Every reply must match the mirror bit for bit,
   both codecs must produce the identical reply object, and [cached] must
   be false on every update reply. *)
let test_stream_e2e_codecs () =
  let ctx, rng, target_rtts = Test_serve.make_ctx () in
  let config =
    { Server.default_config with Server.batch_delay_s = 0.0; cache_capacity = 0 }
  in
  let srv = Server.start ~config ~ctx () in
  Fun.protect
    ~finally:(fun () -> Server.stop srv)
    (fun () ->
      let port = Server.port srv in
      let jfd, ic, oc = Test_serve.connect port in
      let bfd = Test_serve.binary_connect port in
      let truth =
        Geo.Geodesy.coord
          ~lat:(Stats.Rng.uniform rng 34.0 44.0)
          ~lon:(Stats.Rng.uniform rng (-112.0) (-82.0))
      in
      let rtts = target_rtts truth in
      let base_u = mk_update ~target:"mirror" ~epoch:0 ~base:rtts () in
      let mirror, mirror_base =
        Session.create ~epoch:0 ctx (Option.get (Protocol.base_observations_of base_u))
      in
      let step what (u : Protocol.update) mirror_est =
        let jreply =
          Test_serve.parse_reply
            (Test_serve.roundtrip ic oc (update_line { u with Protocol.u_target = "jt" }))
        in
        let breply =
          Test_serve.binary_roundtrip bfd
            (Protocol.Update { u with Protocol.u_target = "bt" })
        in
        Test_serve.check_reply_matches (what ^ " (json)") mirror_est jreply;
        if not (Json.equal jreply breply) then
          Alcotest.failf "%s: codecs diverge\n  json:   %s\n  binary: %s" what
            (Json.to_string jreply) (Json.to_string breply);
        Alcotest.(check bool) (what ^ ": update replies are never cached") false
          (Test_serve.bmem jreply "cached")
      in
      step "open" { base_u with Protocol.u_id = Json.Str "u0" } mirror_base;
      (* Sparse follow-ups, one with a duplicate landmark, then a combined
         delta+retire frame — the server folds first, retires second. *)
      let feeds =
        [
          ("delta-1", mk_update ~id:(Json.Str "u1") ~target:"mirror" ~epoch:1
             ~delta:[| (2, rtts.(2) *. 1.07); (5, rtts.(5) *. 0.93) |] ());
          ("delta-dup", mk_update ~id:(Json.Str "u2") ~target:"mirror" ~epoch:2
             ~delta:[| (8, rtts.(8) *. 1.02); (8, rtts.(8) *. 0.98) |] ());
          ("delta-retire", mk_update ~id:(Json.Str "u3") ~target:"mirror" ~epoch:3
             ~delta:[| (0, rtts.(0) *. 1.11) |] ~retire:1 ());
        ]
      in
      List.iter
        (fun (what, u) ->
          let est = ref (Session.estimate mirror) in
          if Array.length u.Protocol.u_delta > 0 then
            est :=
              Session.fold mirror
                { Session.d_rtts = Protocol.quantized_delta u; d_epoch = u.Protocol.u_epoch };
          (match u.Protocol.u_retire_upto with
          | Some upto -> est := Session.retire mirror ~upto_epoch:upto
          | None -> ());
          step what u !est)
        feeds;
      (* A delta for a target nobody opened is a structured error telling
         the client to replay from base. *)
      let orphan =
        update_line
          (mk_update ~id:(Json.Str "nope") ~target:"ghost" ~epoch:9
             ~delta:[| (1, 25.0) |] ())
      in
      let reply = Test_serve.parse_reply (Test_serve.roundtrip ic oc orphan) in
      Alcotest.(check string) "unknown session is an error" "error"
        (Protocol.status_of reply);
      (match Json.member "reason" reply with
      | Some (Json.Str reason)
        when String.length reason >= 15 && String.sub reason 0 15 = "unknown session" -> ()
      | _ -> Alcotest.failf "unexpected orphan reply: %s" (Json.to_string reply));
      Unix.close jfd;
      Unix.close bfd)

(* ---- the stale-cache rail: a streamed update kills the cached reply ---- *)

let test_update_invalidates_cache () =
  (* The sessions block of the stats frame reads telemetry counters,
     which record only while collection is on. *)
  Octant.Telemetry.reset ();
  Octant.Telemetry.enable ();
  let ctx, rng, target_rtts = Test_serve.make_ctx () in
  let config =
    {
      Server.default_config with
      Server.batch_delay_s = 0.0;
      cache_capacity = 64;
      session_capacity = 1;
    }
  in
  let srv = Server.start ~config ~ctx () in
  Fun.protect
    ~finally:(fun () ->
      Server.stop srv;
      Octant.Telemetry.disable ();
      Octant.Telemetry.reset ())
    (fun () ->
      let port = Server.port srv in
      let fd, ic, oc = Test_serve.connect port in
      let truth =
        Geo.Geodesy.coord
          ~lat:(Stats.Rng.uniform rng 34.0 44.0)
          ~lon:(Stats.Rng.uniform rng (-112.0) (-82.0))
      in
      let rtts = target_rtts truth in
      let localize id =
        Test_serve.parse_reply
          (Test_serve.roundtrip ic oc (Test_serve.localize_line ~id rtts))
      in
      let cached reply = Test_serve.bmem reply "cached" in
      Alcotest.(check bool) "first localize computes" false (cached (localize "l1"));
      Alcotest.(check bool) "second localize replays from cache" true (cached (localize "l2"));
      (* Opening a session over the same observation leaves the cached
         one-shot reply alive: create is bit-identical to localize, so the
         entry is still truthful. *)
      let send_update u =
        Test_serve.parse_reply (Test_serve.roundtrip ic oc (update_line u))
      in
      let base = send_update (mk_update ~id:(Json.Str "b") ~target:"t" ~epoch:0 ~base:rtts ()) in
      Alcotest.(check string) "session opened" "ok" (Protocol.status_of base);
      Alcotest.(check bool) "update replies bypass the cache" false (cached base);
      Alcotest.(check bool) "base open keeps the still-truthful entry" true
        (cached (localize "l3"));
      (* A fold moves the session past its base: the cached reply dies. *)
      let delta =
        send_update
          (mk_update ~id:(Json.Str "d") ~target:"t" ~epoch:1
             ~delta:[| (3, rtts.(3) *. 1.25) |] ())
      in
      Alcotest.(check string) "delta folded" "ok" (Protocol.status_of delta);
      Alcotest.(check bool) "delta reply bypasses the cache" false (cached delta);
      Alcotest.(check bool) "post-update localize recomputes (stale entry gone)" false
        (cached (localize "l4"));
      Alcotest.(check bool) "recomputed entry caches again" true (cached (localize "l5"));
      (* session_capacity = 1: opening a second target evicts the first;
         streaming to the evicted target must say so, not mis-answer. *)
      let other = Array.map (fun r -> r +. 1.0) rtts in
      let base2 =
        send_update (mk_update ~id:(Json.Str "b2") ~target:"t2" ~epoch:0 ~base:other ())
      in
      Alcotest.(check string) "second session opened" "ok" (Protocol.status_of base2);
      let evicted =
        send_update
          (mk_update ~id:(Json.Str "d2") ~target:"t" ~epoch:2 ~delta:[| (1, 30.0) |] ())
      in
      Alcotest.(check string) "evicted target's delta errors" "error"
        (Protocol.status_of evicted);
      (* Stats must account for the stream: a live session, folds, and at
         least one update-triggered invalidation. *)
      let stats =
        Test_serve.parse_reply (Test_serve.roundtrip ic oc {|{"op":"stats"}|})
      in
      if Test_serve.fnum stats "sessions_live" < 1.0 then
        Alcotest.fail "stats reports no live session";
      (match Json.member "sessions" stats with
      | Some sessions ->
          if Test_serve.fnum sessions "folds" < 1.0 then
            Alcotest.fail "stats reports no folds";
          if Test_serve.fnum sessions "invalidations" < 1.0 then
            Alcotest.fail "stats reports no invalidations"
      | None -> Alcotest.fail "stats lacks the sessions object");
      Unix.close fd)

let suite =
  [
    ( "stream",
      [
        QCheck_alcotest.to_alcotest prop_prefix_parity;
        Alcotest.test_case "session base = localize_batch at jobs 1 and 4" `Quick
          test_parity_vs_batch_jobs;
        Alcotest.test_case "out-of-order epochs, duplicate deltas, retire accounting" `Quick
          test_out_of_order_epochs_and_retire;
        Alcotest.test_case "hardened session: base = localize, folds = replay" `Quick
          test_hardened_session;
        Alcotest.test_case "bounded session registry evicts LRU" `Quick
          test_sessions_registry;
        Alcotest.test_case "golden stream trace" `Quick test_stream_golden;
        Alcotest.test_case "daemon update path: both codecs mirror a live session" `Slow
          test_stream_e2e_codecs;
        Alcotest.test_case "streamed update invalidates the cached one-shot reply" `Slow
          test_update_invalidates_cache;
      ] );
  ]
