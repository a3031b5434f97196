(* The traced run's per-layer figures.

   A workload's own requests are pushed down the ladder kernel -> solver
   -> pipeline -> batch -> daemon -> front, each row timed from outside
   by calling the layer's public functions (or sending it frames), with
   telemetry enabled in every process for the counters.  Timing rows are
   reported as the cost a layer adds over the layer below.  The ladder
   runs on a freshly prepared context and on servers of its own, so
   every row starts from the same empty geometry and result caches. *)

module Json = Octant_serve.Json
module Protocol = Octant_serve.Protocol
module Pipeline = Octant.Pipeline
module Telemetry = Obs.Telemetry

type sample = {
  observations : Pipeline.observations array;  (** In-process rows. *)
  undns : (string -> Geo.Geodesy.coord option) option;
  requests : Protocol.localize array;  (** Wire rows: what the daemon can be sent. *)
}

type servers = { d1 : Child.t; d2 : Child.t; front : Child.t }

let spawn (w : Workload.t) =
  let daemon name = Child.daemon ~traced:true ~name ~ctx:w.Workload.ctx ~jobs:Workload.nproc () in
  let d1 = daemon "ladder-daemon-1" in
  let d2 = daemon "ladder-daemon-2" in
  { d1; d2; front = Child.front ~traced:true ~name:"ladder-front" [ d1; d2 ] }

let children s = [ s.front; s.d1; s.d2 ]

let ms = ( *. ) 1000.0
let p50 = Workload.median
let counter snap domain name =
  List.fold_left
    (fun acc c ->
      if c.Telemetry.c_domain = domain && c.Telemetry.c_name = name then c.Telemetry.c_value
      else acc)
    0 snap.Telemetry.counters

let ratio a b = if b = 0.0 then 0.0 else a /. b

(* Microseconds per call of [f] over [items], cycling for at least 50 ms. *)
let per_call_us f items =
  let t0 = Workload.Clock.now () in
  let calls = ref 0 in
  while !calls = 0 || Workload.Clock.since t0 < 0.05 do
    Array.iter f items;
    calls := !calls + Array.length items
  done;
  1e6 *. Workload.Clock.since t0 /. float_of_int !calls

let get = function Ok e -> e | Error e -> failwith ("ladder: localize failed: " ^ e)

(* Session rows: open a session on target 0 and feed it the stream
   workload's kind of sparse re-measurements, sliding window included. *)
let session_rows (w : Workload.t) ctx (req : Protocol.localize) =
  let (s, _), create_s =
    Workload.time (fun () -> Pipeline.Session.create ~epoch:0 ctx (Protocol.observations_of req))
  in
  let folds = ref [] and retires = ref [] and peak = ref (Pipeline.Session.live_constraints s) in
  for n = 1 to 3 * Workload.retire_every do
    let d_rtts =
      Array.map
        (fun (i, r) -> (i, Protocol.quantize_rtt r))
        (Workload.delta w 0 ~count:Workload.delta_landmarks)
    in
    let _, dt = Workload.time (fun () -> Pipeline.Session.fold s { Pipeline.Session.d_rtts; d_epoch = n }) in
    folds := ms dt :: !folds;
    peak := max !peak (Pipeline.Session.live_constraints s);
    match Workload.retire_upto n with
    | Some upto ->
        let _, dt = Workload.time (fun () -> Pipeline.Session.retire s ~upto_epoch:upto) in
        retires := ms dt :: !retires
    | None -> ()
  done;
  let folds = Array.of_list !folds in
  [
    ("session.create_ms", ms create_s);
    ("session.fold_ms_p50", p50 folds);
    ("session.fold_ms_p90", Workload.pct 90.0 folds);
    ("session.retire_ms_p50", p50 (Array.of_list !retires));
    ("session.live_constraints_peak", float_of_int !peak);
  ]

(* Stats replies of the daemons that served some traffic, before and
   after it ([] before: counted from zero). *)
type serving = { before : Json.t list; after : Json.t list }

let delta sv path =
  let sum stats = List.fold_left (fun acc j -> acc +. Wire.num j path) 0.0 stats in
  sum sv.after -. sum sv.before

(* [own]: the workload's daemons over its traced window.  The cache and
   batching rows describe them; the ladder's own daemons stand in when
   the workload has none, or (for batching) never batched. *)
let run s (w : Workload.t) (sample : sample) ~(own : serving) =
  let prepare_s = p50 (Array.init 5 (fun _ -> snd (Workload.time (fun () -> Workload.prepare w)))) in
  let ctx = Workload.prepare w in
  let undns = sample.undns in
  let obs = sample.observations in
  let n = float_of_int (Array.length obs) in
  let d1 = Wire.connect Wire.Octb (Child.port s.d1) in
  let front = Wire.connect Wire.Octb (Child.port s.front) in
  Fun.protect ~finally:(fun () -> Wire.close d1; Wire.close front) @@ fun () ->
  let call conn r = Workload.time (fun () -> Wire.call conn (Protocol.Localize r)) in
  let localize ?undns o =
    let w0 = Gc.minor_words () in
    let est, t = Workload.time (fun () -> get (Pipeline.localize_one ?undns ctx o)) in
    (est, t, Gc.minor_words () -. w0)
  in
  (* Kernel, solver, pipeline: first sight of every target.  Where the
     wire carries the same inputs, the daemon's first sight of the request
     follows at once, so slow drift of the host cancels in the difference. *)
  let snap0 = Telemetry.snapshot () in
  let hits0, misses0 = Pipeline.geometry_cache_stats ctx in
  let first =
    Array.mapi
      (fun i o ->
        let est, t, words = localize ?undns o in
        (est, t, words, if undns = None then Some (call d1 sample.requests.(i)) else None))
      obs
  in
  let snap1 = Telemetry.snapshot () in
  let hits1, misses1 = Pipeline.geometry_cache_stats ctx in
  let d domain name = float_of_int (counter snap1 domain name - counter snap0 domain name) in
  let first_ms = Array.map (fun (_, t, _, _) -> ms t) first in
  let ests = Array.map (fun (e, _, _, _) -> e) first in
  (* The pipeline and the daemon on the inputs the wire carries: for
     study, its observations without traceroutes, in a pass of their own. *)
  let wire =
    Array.mapi
      (fun i (est, t, _, cold) ->
        match cold with
        | Some cold -> (est, t, cold)
        | None ->
            let r = sample.requests.(i) in
            let est, t, _ = localize (Protocol.observations_of r) in
            (est, t, call d1 r))
      first
  in
  let wire_refs = Array.map (fun (e, _, _) -> e) wire in
  let direct_ms = p50 (Array.map (fun (_, t, _) -> ms t) wire) in
  let cold = Array.map (fun (_, _, c) -> c) wire in
  (* Hits: the daemon directly, then the front in front of it, per request. *)
  Wire.pipeline front (Array.map (fun r -> Wire.encode Wire.Octb (Protocol.Localize r)) sample.requests);
  let hot, via_front =
    Array.split (Array.map (fun r -> (call d1 r, call front r)) sample.requests)
  in
  let lat replies = p50 (Array.map (fun (_, t) -> ms t) replies) in
  let cold_ms = lat cold and hit_ms = lat hot and front_ms = lat via_front in
  let wire_ok =
    List.for_all
      (fun replies ->
        Array.for_all2
          (fun (reply, _) ((r : Protocol.localize), e) ->
            Workload.reply_matches ~id:r.Protocol.id ~expected:e reply)
          replies
          (Array.combine sample.requests wire_refs))
      [ cold; hot; via_front ]
  in
  (* Solver add as the difference of two nested public calls; solve
     timed directly on the arrangement. *)
  let cfg = Pipeline.config ctx in
  let split =
    Array.map
      (fun o ->
        let _, pt = Workload.time (fun () -> Pipeline.prepare_target ?undns ctx o) in
        let (_, solver), arr = Workload.time (fun () -> Pipeline.arrangement ?undns ctx o) in
        let _, solve =
          Workload.time (fun () ->
              Octant.Solver.solve ~area_threshold_km2:cfg.Pipeline.area_threshold_km2
                ~weight_band:cfg.Pipeline.weight_band solver)
        in
        (ms pt, ms (arr -. pt), ms solve))
      obs
  in
  let col f = Array.map f split in
  (* Batch: one domain against every core. *)
  let batch1, t1 = Workload.time (fun () -> Pipeline.localize_batch ?undns ~jobs:1 ctx obs) in
  let batchn, tn = Workload.time (fun () -> Pipeline.localize_batch ?undns ~jobs:Workload.nproc ctx obs) in
  let same_as refs results =
    Array.for_all2 (fun r e -> match r with Ok r -> Workload.same r e | Error _ -> false) results refs
  in
  let batch_ok = same_as ests batch1 && same_as ests batchn in
  let sent =
    match Json.member "backends" (Wire.stats (Child.port s.front)) with
    | Some (Json.List bs) -> List.map (fun b -> Wire.num b [ "sent" ]) bs
    | _ -> []
  in
  let fair = List.fold_left ( +. ) 0.0 sent /. float_of_int (max 1 (List.length sent)) in
  (* Codec: the sample's own request and reply frames. *)
  let json_reqs = Array.map (fun r -> Json.to_string (Wire.request_json (Protocol.Localize r))) sample.requests in
  let octb_reqs = Array.map (fun r -> Protocol.Binary.encode_request (Protocol.Localize r)) sample.requests in
  let replies = Array.map fst cold in
  let json_decode s =
    match Json.of_string s with
    | Ok j -> ignore (Protocol.parse_request j)
    | Error e -> failwith e
  in
  let ladder = { before = []; after = List.map (fun c -> Wire.stats (Child.port c)) [ s.d1; s.d2 ] } in
  let cache = if own.after = [] then ladder else own in
  let batching = if delta own [ "batches" ] > 0.0 then own else ladder in
  let cache_hits = delta cache [ "cache"; "hits" ] and cache_misses = delta cache [ "cache"; "misses" ] in
  let rows =
    [
      ("geo.clip_inter_per_target", d "clip" "inter" /. n);
      ("geo.clip_diff_per_target", d "clip" "diff" /. n);
      ("geo.convex_fast_path_share", ratio (d "clip" "convex_fast_path") (d "clip" "inter"));
      ( "geo.degenerate_retry_share",
        ratio (d "clip" "degenerate_retries") (d "clip" "inter" +. d "clip" "diff" +. d "clip" "union") );
      ("geo.minor_words_per_target", Array.fold_left (fun acc (_, _, w, _) -> acc +. w) 0.0 first /. n);
      ("solver.add_ms_p50", p50 (col (fun (_, a, _) -> a)));
      ("solver.solve_ms_p50", p50 (col (fun (_, _, s) -> s)));
      ("solver.constraints_per_target", d "solver" "constraints_added" /. n);
      ("solver.cells_split_per_target", d "solver" "cells_split" /. n);
      ("solver.cells_dropped_per_target", d "solver" "cells_dropped" /. n);
      ("pipeline.prepare_s", prepare_s);
      ("pipeline.prepare_target_ms_p50", p50 (col (fun (p, _, _) -> p)));
      ("pipeline.localize_ms_p50", p50 first_ms);
      ("pipeline.localize_ms_p90", Workload.pct 90.0 first_ms);
      ( "pipeline.geom_cache_hit_share",
        ratio (float_of_int (hits1 - hits0)) (float_of_int (hits1 - hits0 + misses1 - misses0)) );
      ("batch.speedup", t1 /. tn);
      ("batch.tail_ms", Stats.Sample.max first_ms -. Stats.Sample.mean first_ms);
      ("daemon.added_ms_p50", cold_ms -. direct_ms);
      ("daemon.mean_batch_size", ratio (delta batching [ "cache"; "misses" ]) (delta batching [ "batches" ]));
      ("daemon.hit_ms_p50", hit_ms);
      ("codec.json_decode_us", per_call_us json_decode json_reqs);
      ("codec.json_encode_us", per_call_us (fun r -> ignore (Json.to_string r)) replies);
      ("codec.octb_decode_us", per_call_us (fun p -> ignore (Protocol.Binary.decode_request p)) octb_reqs);
      ("codec.octb_encode_us", per_call_us (fun r -> ignore (Protocol.Binary.encode_reply r)) replies);
      ("cache.hit_share", ratio cache_hits (cache_hits +. cache_misses));
      ("cache.evictions", delta cache [ "cache"; "evictions" ]);
      ("cache.invalidations", delta cache [ "cache"; "invalidations" ]);
      ("front.added_ms_p50", front_ms -. hit_ms);
      ("ring.max_share", ratio (List.fold_left Float.max 0.0 sent) fair);
    ]
    @ session_rows w ctx sample.requests.(0)
    @ [ ("ladder.unaccounted_share", Float.abs (cold_ms -. (direct_ms +. hit_ms)) /. cold_ms) ]
  in
  let checks =
    [
      ("ladder: batch at every jobs equals sequential", batch_ok);
      ("ladder: daemon and front replies equal the direct reference", wire_ok);
    ]
  in
  (rows, checks)
