(* Benchmark harness: regenerates every figure of the paper's evaluation
   plus ablations and micro-benchmarks.

     dune exec bench/main.exe            -- everything
     dune exec bench/main.exe fig2       -- latency/distance calibration scatter
     dune exec bench/main.exe fig3       -- error CDFs, all four methods
     dune exec bench/main.exe fig4       -- coverage vs number of landmarks
     dune exec bench/main.exe ablation   -- per-mechanism ablation
     dune exec bench/main.exe robustness -- corrupted measurements
     dune exec bench/main.exe secondary  -- region-valued secondary landmarks
     dune exec bench/main.exe vivaldi    -- coordinate embedding vs Octant
     dune exec bench/main.exe timing     -- end-to-end solution times
     dune exec bench/main.exe adversary  -- error vs f under colluding Byzantine landmarks
     dune exec bench/main.exe stream     -- persistent sessions: incremental folds vs re-solves
     dune exec bench/main.exe batch      -- multicore batch engine, sequential vs N domains
     dune exec bench/main.exe serve      -- localization daemon over loopback TCP
     dune exec bench/main.exe shard      -- planet substrate + sharded multi-daemon serving
     dune exec bench/main.exe geom       -- clip kernels: buffer vs list reference, alloc/op
     dune exec bench/main.exe micro      -- Bechamel micro-benchmarks

   Absolute numbers come from the simulator substrate, not PlanetLab; the
   comparisons against the paper's numbers are printed alongside. *)

let seed = 7
let n_hosts = 51

let banner title =
  Printf.printf "\n================================================================\n";
  Printf.printf "%s\n" title;
  Printf.printf "================================================================\n%!"

(* Machine-readable snapshots for the performance-tracking targets, named
   BENCH_<target>.json in the working directory (CI uploads them as
   artifacts and jq-validates the shape).  Emit owns the shared envelope
   (git revision, bench wall time, recommended domains, gate results)
   and the write-then-enforce discipline. *)
module Json = Octant_serve.Json

(* ------------------------------------------------------------------ *)
(* Figure 2 *)
(* ------------------------------------------------------------------ *)

let fig2 () =
  banner "FIG2: latency vs distance calibration (paper Figure 2)";
  let deployment = Netsim.Deployment.make ~seed ~n_hosts () in
  let bridge = Eval.Bridge.create deployment in
  let n = Eval.Bridge.host_count bridge in
  let all = Array.init n Fun.id in
  let landmarks = Eval.Bridge.landmarks_for bridge ~exclude:(-1) all in
  let inter = Eval.Bridge.inter_rtt_for bridge all in
  let ctx = Octant.Pipeline.prepare ~landmarks ~inter_landmark_rtt_ms:inter () in
  (* The paper plots planetlab1.cs.rochester.edu; we use the first
     deployed host. *)
  let city = Netsim.Deployment.host_city deployment (Eval.Bridge.host_id bridge 0) in
  Printf.printf "# landmark 0: %s\n" city.Netsim.City.name;
  Eval.Report.print_figure2 (Octant.Pipeline.calibration ctx 0);
  (* Shape checks the paper's plot exhibits. *)
  let samples = Octant.Calibration.samples (Octant.Pipeline.calibration ctx 0) in
  let sol_violations =
    List.length
      (List.filter
         (fun s ->
           s.Octant.Calibration.distance_km
           > Geo.Geodesy.rtt_to_max_distance_km s.Octant.Calibration.latency_ms +. 1.0)
         samples)
  in
  Printf.printf "# shape check: %d samples, %d above the speed-of-light line (expect 0)\n"
    (List.length samples) sol_violations

(* ------------------------------------------------------------------ *)
(* Figure 3 *)
(* ------------------------------------------------------------------ *)

let fig3 () =
  banner "FIG3: error CDF, Octant vs GeoLim vs GeoPing vs GeoTrack (paper Figure 3)";
  let study = Eval.Study.run ~seed ~n_hosts () in
  Eval.Report.print_figure3 study;
  let octant = Eval.Study.median_miles study.Eval.Study.octant in
  let geolim = Eval.Study.median_miles study.Eval.Study.geolim in
  let geoping = Eval.Study.median_miles study.Eval.Study.geoping in
  let geotrack = Eval.Study.median_miles study.Eval.Study.geotrack in
  let best_prior = Float.min geolim (Float.min geoping geotrack) in
  Printf.printf "# shape check: Octant median %.1f mi vs best prior %.1f mi -> factor %.1fx\n"
    octant best_prior
    (best_prior /. Float.max octant 0.1);
  Printf.printf "# (paper: 22 mi vs 68 mi -> factor 3.1x; Octant also has the shortest tail)\n";
  (* Extra row: GeoCluster/NetGeo-style pure-database localization over the
     same WHOIS registry (paper section 4 calls its granularity "very
     coarse"). *)
  let deployment = Netsim.Deployment.make ~seed ~n_hosts () in
  let bridge = Eval.Bridge.create deployment in
  let whois_reg = Netsim.Deployment.whois deployment in
  let fallback = (Netsim.City.find_exn "NYC").Netsim.City.location in
  let errs =
    Array.map
      (fun i ->
        let node = Eval.Bridge.host_id bridge i in
        let truth = Eval.Bridge.position bridge i in
        let r =
          Baselines.Geocluster.localize
            ~whois:(fun key ->
              Option.map
                (fun rec_ -> rec_.Netsim.Whois.city.Netsim.City.location)
                (Netsim.Whois.lookup whois_reg key))
            ~fallback ~target_key:node
        in
        Geo.Geodesy.miles_of_km (Geo.Geodesy.distance_km r.Baselines.Geocluster.point truth))
      (Array.init (Eval.Bridge.host_count bridge) Fun.id)
  in
  Printf.printf "GeoCluster median=%7.1f mi  p90=%7.1f  worst=%7.1f  (pure database, no probing)\n"
    (Stats.Sample.median errs)
    (Stats.Sample.percentile 90.0 errs)
    (Stats.Sample.max errs);
  Printf.printf
    "# (a correct registry record scores ~0 in the simulator because hosts sit\n\
     #  at city centers; the tail is what the paper means by \"very coarse\":\n\
     #  stale and missing records land thousands of miles away)\n";
  study

let timing study =
  banner "TIMING: per-target solution time (paper: \"a few seconds\")";
  Eval.Report.print_timing study

(* ------------------------------------------------------------------ *)
(* Batch engine *)
(* ------------------------------------------------------------------ *)

let batch () =
  banner "BATCH: multicore batch engine (Pipeline.localize_batch)";
  let bench_t0 = Emit.now () in
  let deployment = Netsim.Deployment.make ~seed ~n_hosts () in
  let bridge = Eval.Bridge.create deployment in
  let n = Eval.Bridge.host_count bridge in
  let n_lm = n / 2 in
  let lm_set = Array.init n_lm Fun.id in
  let landmarks = Eval.Bridge.landmarks_for bridge ~exclude:(-1) lm_set in
  let inter = Eval.Bridge.inter_rtt_for bridge lm_set in
  let n_targets = n - n_lm in
  (* Measurements are RNG-driven: collect them once, in target order, so
     every row below localizes the same observations. *)
  let obs =
    Octant.Parallel.seq_init n_targets (fun i ->
        Eval.Bridge.observations bridge ~landmark_indices:lm_set ~target:(n_lm + i))
  in
  Printf.printf "# %d fixed landmarks, %d targets, one prepared context per row\n" n_lm
    n_targets;
  Printf.printf "# Domain.recommended_domain_count = %d (speedup needs >1 physical core)\n%!"
    (Octant.Parallel.default_jobs ());
  let wall f =
    let t0 = Unix.gettimeofday () in
    let r = f () in
    (r, Unix.gettimeofday () -. t0)
  in
  let fresh_ctx () = Octant.Pipeline.prepare ~landmarks ~inter_landmark_rtt_ms:inter () in
  (* Estimates must be bit-identical across rows; solve_time_s is the one
     field excluded (it is a stopwatch reading, not a result). *)
  let same (a : Octant.Estimate.t) (b : Octant.Estimate.t) =
    a.Octant.Estimate.point = b.Octant.Estimate.point
    && a.Octant.Estimate.point_plane = b.Octant.Estimate.point_plane
    && a.Octant.Estimate.area_km2 = b.Octant.Estimate.area_km2
    && a.Octant.Estimate.top_weight = b.Octant.Estimate.top_weight
    && a.Octant.Estimate.cells_used = b.Octant.Estimate.cells_used
    && a.Octant.Estimate.constraints_used = b.Octant.Estimate.constraints_used
    && a.Octant.Estimate.target_height_ms = b.Octant.Estimate.target_height_ms
  in
  let same_result a b = match b with Ok b -> same a b | Error _ -> false in
  (* Row 1: telemetry disabled.  The instrumented pipeline must behave as
     if the instrumentation were not there: the no-op sink records nothing
     (asserted below) and costs one atomic load per site. *)
  Octant.Telemetry.disable ();
  Octant.Telemetry.reset ();
  let seq_ctx = fresh_ctx () in
  let seq, t_seq =
    wall (fun () -> Array.map (Octant.Pipeline.localize ~undns:Eval.Bridge.undns seq_ctx) obs)
  in
  let disabled_events = Octant.Telemetry.total_events (Octant.Telemetry.snapshot ()) in
  let hits, misses = Octant.Pipeline.geometry_cache_stats seq_ctx in
  Printf.printf
    "  %-24s %6.2fs   (geometry cache: %d hits, %d misses; telemetry off: %d events)\n%!"
    "sequential localize" t_seq hits misses disabled_events;
  (* Rows 2..: telemetry enabled, one fresh aggregate per jobs setting so
     the deterministic signatures are comparable. *)
  let signatures = ref [] in
  let last_snapshot = ref None in
  let json_rows = ref [] in
  List.iter
    (fun jobs ->
      Octant.Telemetry.reset ();
      Octant.Telemetry.enable ();
      let ctx = fresh_ctx () in
      let ests, t =
        wall (fun () -> Octant.Pipeline.localize_batch ~undns:Eval.Bridge.undns ~jobs ctx obs)
      in
      Octant.Telemetry.disable ();
      let snap = Octant.Telemetry.snapshot () in
      signatures := (jobs, Octant.Telemetry.deterministic_signature snap) :: !signatures;
      last_snapshot := Some snap;
      let identical = Array.for_all2 same_result seq ests in
      let gc_counter name =
        match
          List.find_opt
            (fun c -> c.Octant.Telemetry.c_domain = "gc" && c.Octant.Telemetry.c_name = name)
            snap.Octant.Telemetry.counters
        with
        | Some c -> c.Octant.Telemetry.c_value
        | None -> 0
      in
      let minor_words = gc_counter "minor_words" and major_words = gc_counter "major_words" in
      json_rows :=
        Json.Obj
          [
            ("jobs", Json.Num (float_of_int jobs));
            ("wall_s", Json.num t);
            ("targets_per_s", Json.num (float_of_int n_targets /. t));
            ("speedup", Json.num (t_seq /. t));
            ("identical", Json.Bool identical);
            ("gc_minor_words", Json.Num (float_of_int minor_words));
            ("gc_major_words", Json.Num (float_of_int major_words));
          ]
        :: !json_rows;
      Printf.printf
        "  localize_batch ~jobs:%-3d %6.2fs   identical: %s   speedup: %.2fx   \
         alloc: %.0fM minor words\n%!"
        jobs t
        (if identical then "yes" else "NO")
        (t_seq /. t)
        (float_of_int minor_words /. 1e6))
    [ 1; 4 ];
  (* Stage breakdown from the last (jobs=4) run: where the wall time went.
     Span totals sum CPU seconds across domains, so they exceed the wall
     clock by roughly the parallelism. *)
  (match !last_snapshot with
  | None -> ()
  | Some snap ->
      let counter d n =
        match
          List.find_opt
            (fun c -> c.Octant.Telemetry.c_domain = d && c.Octant.Telemetry.c_name = n)
            snap.Octant.Telemetry.counters
        with
        | Some c -> c.Octant.Telemetry.c_value
        | None -> 0
      in
      let span_total path =
        (* Exact path: a span's total already includes its children. *)
        List.fold_left
          (fun (n, s, w) (v : Octant.Telemetry.span_view) ->
            if v.Octant.Telemetry.s_path = path then
              ( n + v.Octant.Telemetry.s_count,
                s +. v.Octant.Telemetry.s_total_s,
                w + v.Octant.Telemetry.s_minor_words )
            else (n, s, w))
          (0, 0.0, 0) snap.Octant.Telemetry.spans
      in
      Printf.printf
        "  stage breakdown (jobs=4, CPU seconds and minor words summed across domains):\n";
      List.iter
        (fun (label, path) ->
          let n, s, w = span_total path in
          Printf.printf "    %-22s %8.2fs  x%-6d %8.0fM words\n" label s n
            (float_of_int w /. 1e6))
        [
          ("prepare_target", "localize/prepare_target");
          ("solver add", "localize/add_constraints");
          ("solver solve", "localize/solver.solve");
        ];
      Printf.printf
        "    clip ops: %d inter / %d diff (%d convex fast-path, %d retries, %d fallbacks)\n"
        (counter "clip" "inter") (counter "clip" "diff")
        (counter "clip" "convex_fast_path")
        (counter "clip" "degenerate_retries")
        (counter "clip" "degenerate_fallbacks");
      Printf.printf "    cache:    %d lookups, %d hits, %d misses\n" (counter "cache" "lookups")
        (counter "cache" "hits") (counter "cache" "misses");
      Printf.printf "    heights:  %d target fits, %d Nelder-Mead iterations\n"
        (counter "heights" "target_fits")
        (counter "heights" "fit_iterations");
      Printf.printf "    solver:   %d constraints, %d cells split, %d created, %d dropped\n"
        (counter "solver" "constraints_added")
        (counter "solver" "cells_split")
        (counter "solver" "cells_created")
        (counter "solver" "cells_dropped"));
  (* The determinism contract: every deterministic counter and span count
     identical across jobs settings. *)
  let sig1 = List.assoc 1 !signatures and sig4 = List.assoc 4 !signatures in
  Printf.printf "  deterministic counters jobs 1 vs 4: %s\n%!"
    (if sig1 = sig4 then "identical" else "DIVERGED");
  if sig1 <> sig4 then begin
    List.iter
      (fun (k, v) ->
        match List.assoc_opt k sig4 with
        | Some v' when v' = v -> ()
        | Some v' -> Printf.eprintf "  %s: jobs1=%d jobs4=%d\n" k v v'
        | None -> Printf.eprintf "  %s: jobs1=%d jobs4=absent\n" k v)
      sig1;
    List.iter
      (fun (k, v) ->
        if not (List.mem_assoc k sig1) then Printf.eprintf "  %s: jobs1=absent jobs4=%d\n" k v)
      sig4
  end;
  Emit.write ~bench:"batch" ~t0:bench_t0
    ~fields:
      [
        ("landmarks", Json.Num (float_of_int n_lm));
        ("targets", Json.Num (float_of_int n_targets));
        ("sequential_s", Json.num t_seq);
        ("deterministic_signature_match", Json.Bool (sig1 = sig4));
      ]
    ~gates:
      [
        Emit.gate "telemetry_noop" (disabled_events = 0)
          (Printf.sprintf "disabled telemetry recorded %d events (want 0)" disabled_events);
        Emit.gate "deterministic_signature_match" (sig1 = sig4)
          "deterministic counters and span counts identical across jobs settings";
      ]
    ~rows:(List.rev !json_rows) "BENCH_batch.json"

(* ------------------------------------------------------------------ *)
(* Geometry kernels *)
(* ------------------------------------------------------------------ *)

(* Throughput and allocation of the clip kernels, the production buffer
   implementation against the list-based reference kept under
   test/geom_reference.  Both produce bit-identical polygons (the
   clip-equivalence property suite asserts it); the only difference is the
   allocation discipline, which is exactly what this target tracks: the
   words-per-op ratio is the regression guard for the multicore batch
   engine, whose scaling dies by minor-GC stop-the-world when the kernels
   start consing again. *)
let geom () =
  banner "GEOM: clip kernel throughput and allocation, buffer vs list-based reference";
  let bench_t0 = Emit.now () in
  let segments = 48 in
  let n_items = 120 in
  let reps = 3 in
  let rng = Stats.Rng.create 23 in
  (* The pipeline's actual shape population: 48-segment disks and annuli
     (convex fast path and Greiner-Hormann general path respectively). *)
  let mk_pieces () =
    let center =
      Geo.Point.make
        (Stats.Rng.uniform rng (-250.0) 250.0)
        (Stats.Rng.uniform rng (-250.0) 250.0)
    in
    if Stats.Rng.bool rng then
      Geo.Region.pieces
        (Geo.Region.disk ~segments ~center ~radius:(Stats.Rng.uniform rng 150.0 450.0) ())
    else begin
      let r_inner = Stats.Rng.uniform rng 80.0 250.0 in
      Geo.Region.pieces
        (Geo.Region.annulus ~segments ~center ~r_inner
           ~r_outer:(r_inner +. Stats.Rng.uniform rng 80.0 250.0)
           ())
    end
  in
  let pairs = Array.init n_items (fun _ -> (mk_pieces (), mk_pieces ())) in
  (* Raw rings with a closing repeat, for the tessellation (of_points +
     dedup) row. *)
  let rings =
    Array.init n_items (fun _ ->
        let r = Stats.Rng.uniform rng 100.0 400.0 in
        let cx = Stats.Rng.uniform rng (-250.0) 250.0 in
        let cy = Stats.Rng.uniform rng (-250.0) 250.0 in
        Array.init (segments + 1) (fun i ->
            let i = i mod segments in
            let th = 2.0 *. Float.pi *. float_of_int i /. float_of_int segments in
            Geo.Point.make (cx +. (r *. cos th)) (cy +. (r *. sin th))))
  in
  (* Region-level combinators over the polygon kernels, identical in shape
     to the reference's pieces_* helpers so the two sides do the same
     polygon-level work. *)
  let module Ref = Geom_reference.Clip_reference in
  let opt_diff a b =
    let subtract_all p =
      List.fold_left (fun frags q -> List.concat_map (fun f -> Geo.Clip.diff f q) frags) [ p ] b
    in
    List.concat_map subtract_all a
  in
  let ops =
    [
      ( "tessellate",
        (fun i -> ignore (Geo.Polygon.of_points rings.(i))),
        fun i -> ignore (Ref.of_points_ref rings.(i)) );
      ( "inter",
        (fun i ->
          let a, b = pairs.(i) in
          ignore (List.concat_map (fun p -> List.concat_map (Geo.Clip.inter p) b) a)),
        fun i ->
          let a, b = pairs.(i) in
          ignore (Ref.pieces_inter a b) );
      ( "diff",
        (fun i ->
          let a, b = pairs.(i) in
          ignore (opt_diff a b)),
        fun i ->
          let a, b = pairs.(i) in
          ignore (Ref.pieces_diff a b) );
      ( "union",
        (fun i ->
          let a, b = pairs.(i) in
          ignore (a @ opt_diff b a)),
        fun i ->
          let a, b = pairs.(i) in
          ignore (Ref.pieces_union a b) );
    ]
  in
  let counter snap d n =
    match
      List.find_opt
        (fun c -> c.Octant.Telemetry.c_domain = d && c.Octant.Telemetry.c_name = n)
        snap.Octant.Telemetry.counters
    with
    | Some c -> c.Octant.Telemetry.c_value
    | None -> 0
  in
  (* One measurement: [reps * n_items] ops through the domain pool, worker
     allocation summed across domains by the pool's gc.* counters. *)
  let measure ~jobs f =
    Octant.Telemetry.reset ();
    Octant.Telemetry.enable ();
    let total = reps * n_items in
    let t0 = Unix.gettimeofday () in
    ignore (Octant.Parallel.init ~jobs total (fun i -> f (i mod n_items)));
    let wall = Unix.gettimeofday () -. t0 in
    Octant.Telemetry.disable ();
    let snap = Octant.Telemetry.snapshot () in
    let per_op c = float_of_int c /. float_of_int total in
    ( float_of_int total /. wall,
      wall,
      per_op (counter snap "gc" "minor_words"),
      per_op (counter snap "gc" "major_words") )
  in
  Printf.printf "# %d shape pairs x %d reps, %d-segment disks/annuli\n" n_items reps segments;
  Printf.printf "# %-12s %-10s %-5s %12s %16s %16s\n" "op" "kernel" "jobs" "ops/s"
    "minor-words/op" "major-words/op";
  let rows = ref [] in
  let reductions = ref [] in
  List.iter
    (fun (name, opt, reference) ->
      let opt_minor_j1 = ref 0.0 and ref_minor_j1 = ref 0.0 in
      List.iter
        (fun (kernel, f) ->
          List.iter
            (fun jobs ->
              let ops_per_s, wall, minor, major = measure ~jobs f in
              if jobs = 1 then
                if kernel = "buffer" then opt_minor_j1 := minor else ref_minor_j1 := minor;
              Printf.printf "  %-12s %-10s %-5d %12.0f %16.1f %16.1f\n%!" name kernel jobs
                ops_per_s minor major;
              rows :=
                Json.Obj
                  [
                    ("op", Json.Str name);
                    ("kernel", Json.Str kernel);
                    ("jobs", Json.Num (float_of_int jobs));
                    ("wall_s", Json.num wall);
                    ("ops_per_s", Json.num ops_per_s);
                    ("minor_words_per_op", Json.num minor);
                    ("major_words_per_op", Json.num major);
                  ]
                :: !rows)
            [ 1; 4 ])
        [ ("buffer", opt); ("reference", reference) ];
      let reduction = !ref_minor_j1 /. Float.max !opt_minor_j1 1e-9 in
      Printf.printf "  %-12s allocation reduction (reference/buffer, jobs=1): %.1fx\n%!" name
        reduction;
      reductions := (name, reduction) :: !reductions)
    ops;
  let min_reduction =
    List.fold_left (fun acc (_, r) -> Float.min acc r) infinity !reductions
  in
  Printf.printf "  minimum allocation reduction across ops: %.1fx (acceptance: >= 5x)\n%!"
    min_reduction;
  Emit.write ~bench:"geom" ~t0:bench_t0
    ~fields:
      [
        ("segments", Json.Num (float_of_int segments));
        ("pairs", Json.Num (float_of_int n_items));
        ("reps", Json.Num (float_of_int reps));
        ( "alloc_reduction",
          Json.Obj (List.rev_map (fun (n, r) -> (n, Json.num r)) !reductions) );
        ("min_alloc_reduction", Json.num min_reduction);
      ]
    ~gates:
      [
        Emit.gate "min_alloc_reduction" (min_reduction >= 5.0)
          (Printf.sprintf
             "minimum allocation reduction across ops %.1fx (acceptance: >= 5x)" min_reduction);
      ]
    ~rows:(List.rev !rows) "BENCH_geom.json"

(* ------------------------------------------------------------------ *)
(* Serving layer *)
(* ------------------------------------------------------------------ *)

let bench_write_all fd s =
  let n = String.length s in
  let off = ref 0 in
  while !off < n do
    off := !off + Unix.write_substring fd s !off (n - !off)
  done

let bench_read_exactly fd buf n =
  let off = ref 0 in
  while !off < n do
    let k = Unix.read fd buf !off (n - !off) in
    if k = 0 then failwith "server closed mid-bench";
    off := !off + k
  done

let serve_bench () =
  banner "SERVE: localization daemon (Octant_serve) over loopback TCP";
  let bench_t0 = Emit.now () in
  let deployment = Netsim.Deployment.make ~seed ~n_hosts () in
  let bridge = Eval.Bridge.create deployment in
  let n = Eval.Bridge.host_count bridge in
  let n_lm = n / 2 in
  let lm_set = Array.init n_lm Fun.id in
  let landmarks = Eval.Bridge.landmarks_for bridge ~exclude:(-1) lm_set in
  let inter = Eval.Bridge.inter_rtt_for bridge lm_set in
  let n_targets = n - n_lm in
  let observations =
    Array.init n_targets (fun i ->
        Eval.Bridge.observations bridge ~landmark_indices:lm_set ~target:(n_lm + i))
  in
  (* The same request per target in both codecs (identical float bits). *)
  let json_requests =
    Array.mapi
      (fun i obs ->
        Json.to_string
          (Json.Obj
             [
               ("id", Json.Num (float_of_int i));
               ( "rtt_ms",
                 Json.List
                   (Array.to_list (Array.map Json.num obs.Octant.Pipeline.target_rtt_ms)) );
             ])
        ^ "\n")
      observations
  in
  let bin_requests =
    Array.mapi
      (fun i obs ->
        Octant_serve.Protocol.Binary.frame
          (Octant_serve.Protocol.Binary.encode_request
             (Octant_serve.Protocol.Localize
                {
                  Octant_serve.Protocol.id = Json.Num (float_of_int i);
                  rtt_ms = obs.Octant.Pipeline.target_rtt_ms;
                  whois = None;
                  deadline_ms = None;
                  want_audit = false;
                })))
      observations
  in
  let ctx = Octant.Pipeline.prepare ~landmarks ~inter_landmark_rtt_ms:inter () in
  let n_clients = 4 in
  Printf.printf "# %d landmarks, %d distinct requests, %d clients\n%!" n_lm n_targets n_clients;
  let rows = ref [] in
  (* Gate inputs, mirrored by CI's jq re-validation of the snapshot. *)
  let wire_rps = Hashtbl.create 4 in
  let min_wire_hit_rate = ref infinity in
  (* One measured configuration of the daemon.

     [workload]: ["solve"] replays the committed-baseline shape — two
     passes over the distinct requests, so pass 1 pays the solver and
     pass 2 hits the cache; ["wire"] warms the cache untimed, then times
     hot passes only — pure serving-stack throughput (event loop, codec,
     sharded cache), no solver in the measured window. *)
  let run_case ~workload ~codec ~jobs ~shards ~timed_passes ~warm =
    let config =
      {
        Octant_serve.Server.default_config with
        Octant_serve.Server.jobs = Some jobs;
        batch_delay_s = 0.002;
        cache_capacity = 1024;
        cache_shards = shards;
      }
    in
    Octant.Telemetry.reset ();
    Octant.Telemetry.enable ();
    let srv = Octant_serve.Server.start ~config ~ctx () in
    let port = Octant_serve.Server.port srv in
    let requests = match codec with `Json -> json_requests | `Binary -> bin_requests in
    let connect () =
      let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
      Unix.setsockopt fd Unix.TCP_NODELAY true;
      (match codec with
      | `Binary -> bench_write_all fd Octant_serve.Protocol.Binary.magic
      | `Json -> ());
      fd
    in
    let reply_reader fd =
      match codec with
      | `Json ->
          let ic = Unix.in_channel_of_descr fd in
          fun () ->
            (match input_line ic with
            | _reply -> ()
            | exception End_of_file -> failwith "server closed mid-bench")
      | `Binary ->
          let hdr = Bytes.create Octant_serve.Protocol.Binary.header_length in
          let payload = Bytes.create 65536 in
          fun () ->
            bench_read_exactly fd hdr Octant_serve.Protocol.Binary.header_length;
            let len = Octant_serve.Protocol.Binary.decode_length (Bytes.to_string hdr) in
            if len > Bytes.length payload then
              failwith (Printf.sprintf "implausible binary reply length %d (desynced?)" len);
            bench_read_exactly fd payload len
    in
    if warm then begin
      (* Untimed warm pass: fill the cache so the measured window is
         all serving stack, no solver. *)
      let fd = connect () in
      let read_reply = reply_reader fd in
      Array.iter
        (fun req ->
          bench_write_all fd req;
          read_reply ())
        requests;
      Unix.close fd
    end;
    let latencies = Array.make n_clients [] in
    let client c () =
      let fd = connect () in
      let read_reply = reply_reader fd in
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () ->
          for _pass = 1 to timed_passes do
            Array.iteri
              (fun i req ->
                if i mod n_clients = c then begin
                  let t0 = Unix.gettimeofday () in
                  bench_write_all fd req;
                  read_reply ();
                  latencies.(c) <- (Unix.gettimeofday () -. t0) :: latencies.(c)
                end)
              requests
          done)
    in
    let t0 = Unix.gettimeofday () in
    let threads = Array.init n_clients (fun c -> Thread.create (client c) ()) in
    Array.iter Thread.join threads;
    let wall = Unix.gettimeofday () -. t0 in
    let cache = Octant_serve.Server.cache_stats srv in
    Octant_serve.Server.stop srv;
    Octant.Telemetry.disable ();
    let gc_counter name =
      let snap = Octant.Telemetry.snapshot () in
      match
        List.find_opt
          (fun c -> c.Octant.Telemetry.c_domain = "gc" && c.Octant.Telemetry.c_name = name)
          snap.Octant.Telemetry.counters
      with
      | Some c -> c.Octant.Telemetry.c_value
      | None -> 0
    in
    let minor_words = gc_counter "minor_words" in
    let major_words = gc_counter "major_words" in
    let lat_ms =
      Array.of_list
        (List.concat_map (fun l -> List.map (fun s -> 1000.0 *. s) l) (Array.to_list latencies))
    in
    let total = Array.length lat_ms in
    let p50 = Stats.Sample.percentile 50.0 lat_ms in
    let p99 = Stats.Sample.percentile 99.0 lat_ms in
    let rps = float_of_int total /. wall in
    let hit_rate =
      let lookups = cache.Octant_serve.Lru.hits + cache.Octant_serve.Lru.misses in
      if lookups = 0 then 0.0
      else float_of_int cache.Octant_serve.Lru.hits /. float_of_int lookups
    in
    let codec_name = match codec with `Json -> "json" | `Binary -> "binary" in
    if workload = "wire" then begin
      if jobs = 1 && shards = 8 then Hashtbl.replace wire_rps codec_name rps;
      min_wire_hit_rate := Float.min !min_wire_hit_rate hit_rate
    end;
    Printf.printf
      "  %-5s %-6s jobs=%d shards=%-2d %5d requests in %6.2fs  %8.1f req/s   p50=%6.2f ms  \
       p99=%6.2f ms  hit rate %.0f%%\n%!"
      workload codec_name jobs shards total wall rps p50 p99 (100.0 *. hit_rate);
    rows :=
      Json.Obj
        [
          ("workload", Json.Str workload);
          ("codec", Json.Str codec_name);
          ("jobs", Json.Num (float_of_int jobs));
          ("shards", Json.Num (float_of_int shards));
          ("requests", Json.Num (float_of_int total));
          ("wall_s", Json.num wall);
          ("requests_per_s", Json.num rps);
          ("p50_ms", Json.num p50);
          ("p99_ms", Json.num p99);
          ("cache_hits", Json.Num (float_of_int cache.Octant_serve.Lru.hits));
          ("cache_misses", Json.Num (float_of_int cache.Octant_serve.Lru.misses));
          ("cache_hit_rate", Json.num hit_rate);
          ("gc_minor_words", Json.Num (float_of_int minor_words));
          ("gc_major_words", Json.Num (float_of_int major_words));
        ]
      :: !rows
  in
  (* Baseline-shaped rows: the committed snapshot's workload (pass 1
     solves, pass 2 cache hits) — the CI floor compares jobs=1 here
     against the pre-event-loop snapshot. *)
  Printf.printf "# solve workload: 2 passes, pass 1 pays the solver (baseline shape)\n%!";
  List.iter
    (fun jobs -> run_case ~workload:"solve" ~codec:`Json ~jobs ~shards:8 ~timed_passes:2 ~warm:false)
    [ 1; 4 ];
  (* Hot rows: frames-per-codec and shard-count sweeps with the solver
     out of the measured window. *)
  Printf.printf "# wire workload: warmed cache, hot passes only (serving stack)\n%!";
  List.iter
    (fun (codec, shards) ->
      run_case ~workload:"wire" ~codec ~jobs:1 ~shards ~timed_passes:20 ~warm:true)
    [ (`Json, 1); (`Json, 8); (`Binary, 1); (`Binary, 8) ];
  let wire_rate codec = Option.value ~default:0.0 (Hashtbl.find_opt wire_rps codec) in
  Emit.write ~bench:"serve" ~t0:bench_t0
    ~fields:
      [
        ("landmarks", Json.Num (float_of_int n_lm));
        ("distinct_requests", Json.Num (float_of_int n_targets));
        ("clients", Json.Num (float_of_int n_clients));
      ]
    ~gates:
      [
        Emit.gate "wire_json_rps" (wire_rate "json" >= 100.0)
          (Printf.sprintf "hot json jobs=1 shards=8 row at %.1f req/s (want >= 100)"
             (wire_rate "json"));
        Emit.gate "wire_binary_rps" (wire_rate "binary" >= 100.0)
          (Printf.sprintf "hot binary jobs=1 shards=8 row at %.1f req/s (want >= 100)"
             (wire_rate "binary"));
        Emit.gate "wire_cache_hit_rate" (!min_wire_hit_rate >= 0.9)
          (Printf.sprintf "lowest wire-workload cache hit rate %.2f (want >= 0.9)"
             !min_wire_hit_rate);
      ]
    ~rows:(List.rev !rows) "BENCH_serve.json"

(* ------------------------------------------------------------------ *)
(* Planet substrate + sharded serving *)
(* ------------------------------------------------------------------ *)

(* Two sections.  The substrate section streams every target of a
   planet-scale world (O(10k) routers, O(1k) landmarks, O(100k) targets)
   and gates on flat heap growth — targets are pure functions of
   seed * index, so streaming must not accumulate state — plus
   streamed-vs-eager bit parity on a small world.

   The serving section measures the octant_shard front over 1, 2, and 4
   octant_served backends on a hot-cache wire workload whose distinct
   request set exceeds one backend's LRU capacity.  On a single-core
   runner the scaling win comes from aggregate cache capacity, not
   parallelism: one backend thrashes its LRU (every request pays the
   solver), while the consistent-hash split gives each of two backends a
   key range that fits, so the measured window is pure serving stack.
   The 2-backend row must clear [shard_min_scaling_2x] times the
   1-backend row; CI re-validates the committed snapshot with jq. *)
let shard_min_scaling_2x = 1.6

let shard_bench () =
  banner "SHARD: planet substrate streaming + consistent-hash fan-out (octant_shard)";
  let bench_t0 = Emit.now () in
  (* --- Substrate section ------------------------------------------- *)
  let world = Netsim.Planet.create ~seed () in
  let p = Netsim.Planet.params world in
  let create_s = Emit.now () -. bench_t0 in
  Printf.printf "# planet world: %d routers, %d landmarks, %d streamable targets (%.2fs)\n%!"
    p.Netsim.Planet.n_routers p.Netsim.Planet.n_landmarks p.Netsim.Planet.n_targets create_s;
  (* Flat memory is judged on live words, not chunk sizes: heap_words is
     the major heap's high-water mark and (on runtimes where compaction
     is a no-op) pool slack from transient per-target allocations would
     read as "growth" even though the stream retains nothing. *)
  Gc.compact ();
  let heap_before = (Gc.stat ()).Gc.live_words in
  let t0 = Emit.now () in
  let checksum =
    Netsim.Planet.fold_targets world ~init:0.0 ~f:(fun acc _target rtts ->
        acc +. rtts.(0) +. rtts.(Array.length rtts - 1))
  in
  let stream_s = Emit.now () -. t0 in
  Gc.compact ();
  let heap_after = (Gc.stat ()).Gc.live_words in
  let heap_growth = float_of_int heap_after /. float_of_int (Stdlib.max 1 heap_before) in
  let targets_per_s = float_of_int p.Netsim.Planet.n_targets /. stream_s in
  Printf.printf
    "  streamed %d targets x %d landmarks in %6.2fs (%8.0f targets/s)  checksum %.3f\n%!"
    p.Netsim.Planet.n_targets p.Netsim.Planet.n_landmarks stream_s targets_per_s checksum;
  Printf.printf "  live heap: %d -> %d words across the stream (growth %.3fx)\n%!" heap_before
    heap_after heap_growth;
  (* Streamed-vs-eager parity on a world small enough to materialize:
     shuffled lazy access must reproduce the eager tables bit for bit. *)
  let small =
    Netsim.Planet.create
      ~params:
        {
          Netsim.Planet.default_params with
          Netsim.Planet.n_routers = 200;
          n_landmarks = 16;
          n_targets = 300;
        }
      ~seed ()
  in
  let eager_targets, eager_rtts = Netsim.Planet.eager small in
  let order = Array.init (Array.length eager_targets) Fun.id in
  let rng = Stats.Rng.create 99 in
  for i = Array.length order - 1 downto 1 do
    let j = Stats.Rng.int rng (i + 1) in
    let tmp = order.(i) in
    order.(i) <- order.(j);
    order.(j) <- tmp
  done;
  let stream_parity =
    Array.for_all
      (fun i ->
        let tgt = Netsim.Planet.target small i in
        tgt = eager_targets.(i) && Netsim.Planet.rtt_vector small tgt = eager_rtts.(i))
      order
  in
  Printf.printf "  streamed vs eager on a 300-target world (shuffled access): %s\n%!"
    (if stream_parity then "bit-identical" else "DIVERGED");
  (* --- Serving section --------------------------------------------- *)
  let n_landmarks_ctx = 32 in
  let ctx = Eval.Planet_bridge.prepare ~count:n_landmarks_ctx world in
  let n_requests = 320 in
  let cache_capacity = 256 in
  let bin_requests =
    Array.init n_requests (fun i ->
        let obs =
          Eval.Planet_bridge.observations ~count:n_landmarks_ctx world
            (Netsim.Planet.target world i)
        in
        Octant_serve.Protocol.Binary.frame
          (Octant_serve.Protocol.Binary.encode_request
             (Octant_serve.Protocol.Localize
                {
                  Octant_serve.Protocol.id = Json.Num (float_of_int i);
                  rtt_ms = obs.Octant.Pipeline.target_rtt_ms;
                  whois = None;
                  deadline_ms = None;
                  want_audit = false;
                })))
  in
  let n_clients = 4 in
  Printf.printf
    "# front + N in-process backends; %d distinct requests vs %d-entry backend caches, %d \
     binary clients\n\
     # (one backend's LRU thrashes; two backends' aggregate capacity fits the key space)\n%!"
    n_requests cache_capacity n_clients;
  let connect port =
    let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
    Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
    Unix.setsockopt fd Unix.TCP_NODELAY true;
    bench_write_all fd Octant_serve.Protocol.Binary.magic;
    fd
  in
  let reply_reader fd =
    let hdr = Bytes.create Octant_serve.Protocol.Binary.header_length in
    let payload = Bytes.create 65536 in
    fun () ->
      bench_read_exactly fd hdr Octant_serve.Protocol.Binary.header_length;
      let len = Octant_serve.Protocol.Binary.decode_length (Bytes.to_string hdr) in
      if len > Bytes.length payload then
        failwith (Printf.sprintf "implausible binary reply length %d (desynced?)" len);
      bench_read_exactly fd payload len
  in
  let rows = ref [] in
  let rps_by_backends = Hashtbl.create 4 in
  let run_row n_backends =
    let servers =
      List.init n_backends (fun _ ->
          Octant_serve.Server.start
            ~config:
              {
                Octant_serve.Server.default_config with
                Octant_serve.Server.jobs = Some 1;
                batch_delay_s = 0.0005;
                cache_capacity;
                cache_shards = 8;
              }
            ~ctx ())
    in
    let backend_addrs =
      List.map (fun srv -> ("127.0.0.1", Octant_serve.Server.port srv)) servers
    in
    let front_config backends =
      { Octant_serve.Shard.default_config with Octant_serve.Shard.backends }
    in
    (* Warm through a throwaway front so backend caches hold their key
       range, then measure through a fresh front whose latency
       histograms see only the hot window.  Both fronts route on the
       same ring (same backend names), so the split is identical. *)
    let warm_front = Octant_serve.Shard.start ~config:(front_config backend_addrs) () in
    let fd = connect (Octant_serve.Shard.port warm_front) in
    let read_reply = reply_reader fd in
    Array.iter
      (fun req ->
        bench_write_all fd req;
        read_reply ())
      bin_requests;
    Unix.close fd;
    Octant_serve.Shard.stop warm_front;
    let cache_base =
      List.map
        (fun srv ->
          let s = Octant_serve.Server.cache_stats srv in
          (s.Octant_serve.Lru.hits, s.Octant_serve.Lru.misses))
        servers
    in
    let front = Octant_serve.Shard.start ~config:(front_config backend_addrs) () in
    let port = Octant_serve.Shard.port front in
    let timed_passes = if n_backends = 1 then 2 else 12 in
    let latencies = Array.make n_clients [] in
    let client c () =
      let fd = connect port in
      let read_reply = reply_reader fd in
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () ->
          for _pass = 1 to timed_passes do
            Array.iteri
              (fun i req ->
                if i mod n_clients = c then begin
                  let t0 = Unix.gettimeofday () in
                  bench_write_all fd req;
                  read_reply ();
                  latencies.(c) <- (Unix.gettimeofday () -. t0) :: latencies.(c)
                end)
              bin_requests
          done)
    in
    let t0 = Unix.gettimeofday () in
    let threads = Array.init n_clients (fun c -> Thread.create (client c) ()) in
    Array.iter Thread.join threads;
    let wall = Unix.gettimeofday () -. t0 in
    let shard_stats = Octant_serve.Shard.backend_stats front in
    Octant_serve.Shard.stop front;
    let hits, misses =
      List.fold_left2
        (fun (h, m) srv (h0, m0) ->
          let s = Octant_serve.Server.cache_stats srv in
          (h + s.Octant_serve.Lru.hits - h0, m + s.Octant_serve.Lru.misses - m0))
        (0, 0) servers cache_base
    in
    List.iter Octant_serve.Server.stop servers;
    let hit_rate =
      if hits + misses = 0 then 0.0 else float_of_int hits /. float_of_int (hits + misses)
    in
    let lat_ms =
      Array.of_list
        (List.concat_map (fun l -> List.map (fun s -> 1000.0 *. s) l) (Array.to_list latencies))
    in
    let total = Array.length lat_ms in
    let rps = float_of_int total /. wall in
    let p50 = Stats.Sample.percentile 50.0 lat_ms in
    let p99 = Stats.Sample.percentile 99.0 lat_ms in
    let max_shard_p99 =
      List.fold_left
        (fun acc (bs : Octant_serve.Shard.backend_stat) ->
          if Float.is_nan bs.Octant_serve.Shard.bs_p99_ms then acc
          else Float.max acc bs.Octant_serve.Shard.bs_p99_ms)
        0.0 shard_stats
    in
    Hashtbl.replace rps_by_backends n_backends rps;
    Printf.printf
      "  backends=%d %5d requests in %6.2fs  %8.1f req/s   p50=%6.2f ms  p99=%6.2f ms  \
       max shard p99=%6.2f ms  hit rate %.0f%%\n%!"
      n_backends total wall rps p50 p99 max_shard_p99 (100.0 *. hit_rate);
    List.iter
      (fun (bs : Octant_serve.Shard.backend_stat) ->
        Printf.printf "    %-22s sent %5d  replies %5d  p50=%6.2f ms  p99=%6.2f ms\n%!"
          bs.Octant_serve.Shard.bs_name bs.Octant_serve.Shard.bs_sent
          bs.Octant_serve.Shard.bs_replies bs.Octant_serve.Shard.bs_p50_ms
          bs.Octant_serve.Shard.bs_p99_ms)
      shard_stats;
    rows :=
      Json.Obj
        [
          ("backends", Json.Num (float_of_int n_backends));
          ("requests", Json.Num (float_of_int total));
          ("wall_s", Json.num wall);
          ("requests_per_s", Json.num rps);
          ("p50_ms", Json.num p50);
          ("p99_ms", Json.num p99);
          ("max_shard_p99_ms", Json.num max_shard_p99);
          ("cache_hits", Json.Num (float_of_int hits));
          ("cache_misses", Json.Num (float_of_int misses));
          ("cache_hit_rate", Json.num hit_rate);
          ( "shards",
            Json.List
              (List.map
                 (fun (bs : Octant_serve.Shard.backend_stat) ->
                   Json.Obj
                     [
                       ("name", Json.Str bs.Octant_serve.Shard.bs_name);
                       ("sent", Json.Num (float_of_int bs.Octant_serve.Shard.bs_sent));
                       ("replies", Json.Num (float_of_int bs.Octant_serve.Shard.bs_replies));
                       ("p50_ms", Json.num bs.Octant_serve.Shard.bs_p50_ms);
                       ("p99_ms", Json.num bs.Octant_serve.Shard.bs_p99_ms);
                     ])
                 shard_stats) );
        ]
      :: !rows
  in
  List.iter run_row [ 1; 2; 4 ];
  let rps n = Option.value ~default:0.0 (Hashtbl.find_opt rps_by_backends n) in
  let scaling_2x = rps 2 /. Float.max (rps 1) 1e-9 in
  Printf.printf "# gates: 2-backend throughput %.2fx the 1-backend row (want >= %.1fx)\n%!"
    scaling_2x shard_min_scaling_2x;
  Emit.write ~bench:"shard" ~t0:bench_t0
    ~fields:
      [
        ( "substrate",
          Json.Obj
            [
              ("routers", Json.Num (float_of_int p.Netsim.Planet.n_routers));
              ("landmarks", Json.Num (float_of_int p.Netsim.Planet.n_landmarks));
              ("targets", Json.Num (float_of_int p.Netsim.Planet.n_targets));
              ("create_s", Json.num create_s);
              ("stream_s", Json.num stream_s);
              ("targets_per_s", Json.num targets_per_s);
              ("live_words_before", Json.Num (float_of_int heap_before));
              ("live_words_after", Json.Num (float_of_int heap_after));
              ("live_growth_ratio", Json.num heap_growth);
              ("checksum", Json.num checksum);
            ] );
        ("ctx_landmarks", Json.Num (float_of_int n_landmarks_ctx));
        ("distinct_requests", Json.Num (float_of_int n_requests));
        ("backend_cache_capacity", Json.Num (float_of_int cache_capacity));
        ("clients", Json.Num (float_of_int n_clients));
        ("scaling_2x_ratio", Json.num scaling_2x);
        ("min_scaling_2x", Json.num shard_min_scaling_2x);
      ]
    ~gates:
      [
        Emit.gate "stream_parity" stream_parity
          "shuffled streamed targets bit-identical to the eager tables";
        Emit.gate "flat_memory" (heap_growth <= 1.2)
          (Printf.sprintf
             "live heap grew %.3fx across a %d-target stream (want <= 1.2x: streaming must \
              not accumulate state)"
             heap_growth p.Netsim.Planet.n_targets);
        Emit.gate "scaling_2x" (scaling_2x >= shard_min_scaling_2x)
          (Printf.sprintf "2-backend throughput %.2fx the 1-backend row (want >= %.1fx)"
             scaling_2x shard_min_scaling_2x);
      ]
    ~rows:(List.rev !rows) "BENCH_shard.json"

(* ------------------------------------------------------------------ *)
(* Streaming re-localization *)
(* ------------------------------------------------------------------ *)

(* Gates for the persistent-session live-update path (ROADMAP item 1):
   folding a delta into the live arrangement must beat a from-scratch
   re-solve of the same constraint log by at least this factor, the
   incremental estimate must stay bit-identical to that re-solve at
   every prefix, and the session's live state must stay flat across a
   long feed (epoch decay actually bounds the log). *)
let stream_min_fold_speedup = 2.0
let stream_max_live_growth = 1.10

let stream_bench () =
  banner "STREAM: persistent sessions, incremental folds vs full re-solves";
  let bench_t0 = Emit.now () in
  (* A 16-landmark world: hosts 0..15 serve as landmarks, host 16 is the
     streamed target. *)
  let n_world = 20 in
  let n_lm = 16 in
  let deployment = Netsim.Deployment.make ~seed ~n_hosts:n_world () in
  let bridge = Eval.Bridge.create deployment in
  let lm_set = Array.init n_lm Fun.id in
  let landmarks = Eval.Bridge.landmarks_for bridge ~exclude:(-1) lm_set in
  let inter = Eval.Bridge.inter_rtt_for bridge lm_set in
  let ctx = Octant.Pipeline.prepare ~landmarks ~inter_landmark_rtt_ms:inter () in
  let base_obs = Eval.Bridge.observations bridge ~landmark_indices:lm_set ~target:16 in
  let base_rtts = base_obs.Octant.Pipeline.target_rtt_ms in
  (* Deterministic synthetic feed: each update re-measures two random
     landmarks with +-10% jitter on the true RTT; every [retire_every]
     updates epochs older than a [window]-epoch sliding horizon decay. *)
  let retire_every = 64 in
  let window = 96 in
  let feed n =
    let rng = Stats.Rng.create 42 in
    Array.init n (fun i ->
        let epoch = i + 1 in
        let d_rtts =
          Array.init 2 (fun _ ->
              let lm = Stats.Rng.int rng n_lm in
              (lm, base_rtts.(lm) *. Stats.Rng.uniform rng 0.9 1.1))
        in
        let retire =
          if epoch mod retire_every = 0 && epoch - window >= 0 then Some (epoch - window)
          else None
        in
        (epoch, d_rtts, retire))
  in
  let same (a : Octant.Estimate.t) (b : Octant.Estimate.t) =
    a.Octant.Estimate.point = b.Octant.Estimate.point
    && a.Octant.Estimate.point_plane = b.Octant.Estimate.point_plane
    && a.Octant.Estimate.area_km2 = b.Octant.Estimate.area_km2
    && a.Octant.Estimate.top_weight = b.Octant.Estimate.top_weight
    && a.Octant.Estimate.cells_used = b.Octant.Estimate.cells_used
    && a.Octant.Estimate.constraints_used = b.Octant.Estimate.constraints_used
    && a.Octant.Estimate.target_height_ms = b.Octant.Estimate.target_height_ms
  in
  let apply session (epoch, d_rtts, retire) =
    let est =
      Octant.Pipeline.Session.fold session
        { Octant.Pipeline.Session.d_rtts; d_epoch = epoch }
    in
    match retire with
    | Some upto -> Octant.Pipeline.Session.retire session ~upto_epoch:upto
    | None -> est
  in
  (* Phase A: prefix parity and fold-vs-resolve speedup.  At every
     prefix of the feed the folded estimate is compared (bit for bit)
     against a from-scratch re-solve of the session's surviving
     constraint log, and both paths are timed on the same prefixes. *)
  let n_parity = 150 in
  let parity_feed = feed n_parity in
  let session, _ = Octant.Pipeline.Session.create ctx base_obs in
  let fold_s = ref 0.0 and resolve_s = ref 0.0 in
  let parity_failures = ref 0 in
  Array.iter
    (fun u ->
      let t0 = Unix.gettimeofday () in
      let est = apply session u in
      fold_s := !fold_s +. (Unix.gettimeofday () -. t0);
      let t1 = Unix.gettimeofday () in
      let replay = Octant.Pipeline.Session.replay_estimate session in
      resolve_s := !resolve_s +. (Unix.gettimeofday () -. t1);
      if not (same est replay) then incr parity_failures)
    parity_feed;
  let prefix_parity = !parity_failures = 0 in
  let fold_speedup = !resolve_s /. Float.max !fold_s 1e-9 in
  let fold_us = 1e6 *. !fold_s /. float_of_int n_parity in
  let resolve_us = 1e6 *. !resolve_s /. float_of_int n_parity in
  Printf.printf
    "  parity feed: %d updates  fold %7.0f us/update  re-solve %7.0f us/update  speedup %.2fx  parity %s\n%!"
    n_parity fold_us resolve_us fold_speedup
    (if prefix_parity then "ok (every prefix)" else Printf.sprintf "FAIL (%d)" !parity_failures);
  (* Phase B: a long feed.  Folds only (re-solve sampled sparsely for a
     parity spot check), live state sampled to prove epoch decay keeps
     session memory flat across >= 1k updates. *)
  let n_long = 1200 in
  let long_feed = feed n_long in
  let session2, _ = Octant.Pipeline.Session.create ctx base_obs in
  let samples = ref [] in
  let long_fold_s = ref 0.0 in
  let long_parity_ok = ref true in
  Array.iteri
    (fun i u ->
      let t0 = Unix.gettimeofday () in
      let est = apply session2 u in
      long_fold_s := !long_fold_s +. (Unix.gettimeofday () -. t0);
      if (i + 1) mod 50 = 0 then
        samples :=
          ( i + 1,
            Octant.Pipeline.Session.live_constraints session2,
            Octant.Pipeline.Session.cells_live session2 )
          :: !samples;
      if (i + 1) mod 200 = 0 then
        long_parity_ok :=
          !long_parity_ok && same est (Octant.Pipeline.Session.replay_estimate session2))
    long_feed;
  let samples = List.rev !samples in
  let updates_per_s = float_of_int n_long /. Float.max !long_fold_s 1e-9 in
  (* Flatness: after the first retire horizon has passed, the peak live
     constraint count must not keep growing. *)
  let warm = List.filter (fun (i, _, _) -> i > window) samples in
  let half = (n_long + window) / 2 in
  let peak p =
    List.fold_left (fun acc (i, live, _) -> if p i then Stdlib.max acc live else acc) 0 warm
  in
  let first_peak = peak (fun i -> i <= half) in
  let second_peak = peak (fun i -> i > half) in
  let live_growth = float_of_int second_peak /. float_of_int (Stdlib.max first_peak 1) in
  let memory_flat = live_growth <= stream_max_live_growth in
  Printf.printf
    "  long feed: %d updates at %7.0f updates/s  live peak %d (first half) -> %d (second half, %.2fx)\n%!"
    n_long updates_per_s first_peak second_peak live_growth;
  Printf.printf "# gates: prefix parity %s, fold speedup %.2fx (>= %.1fx), live growth %.2fx (<= %.2fx)\n%!"
    (if prefix_parity && !long_parity_ok then "ok" else "FAIL")
    fold_speedup stream_min_fold_speedup live_growth stream_max_live_growth;
  Emit.write ~bench:"stream" ~t0:bench_t0
    ~fields:
      [
        ("landmarks", Json.Num (float_of_int n_lm));
        ("parity_updates", Json.Num (float_of_int n_parity));
        ("long_updates", Json.Num (float_of_int n_long));
        ("retire_every", Json.Num (float_of_int retire_every));
        ("retire_window", Json.Num (float_of_int window));
        ("fold_us_per_update", Json.num fold_us);
        ("resolve_us_per_update", Json.num resolve_us);
        ("fold_speedup", Json.num fold_speedup);
        ("min_fold_speedup", Json.num stream_min_fold_speedup);
        ("updates_per_s", Json.num updates_per_s);
        ("live_peak_first_half", Json.Num (float_of_int first_peak));
        ("live_peak_second_half", Json.Num (float_of_int second_peak));
        ("live_growth", Json.num live_growth);
        ("max_live_growth", Json.num stream_max_live_growth);
        ("prefix_parity", Json.Bool (prefix_parity && !long_parity_ok));
      ]
    ~gates:
      [
        Emit.gate "prefix_parity"
          (prefix_parity && !long_parity_ok)
          "incremental estimate bit-identical to a from-scratch re-solve at every prefix";
        Emit.gate "fold_speedup"
          (fold_speedup >= stream_min_fold_speedup)
          (Printf.sprintf "fold %.2fx faster than naive re-solve (want >= %.1fx)" fold_speedup
             stream_min_fold_speedup);
        Emit.gate "memory_flat" memory_flat
          (Printf.sprintf
             "peak live constraints grew %.2fx across %d updates (want <= %.2fx)" live_growth
             n_long stream_max_live_growth);
      ]
    ~rows:
      (List.map
         (fun (i, live, cells) ->
           Json.Obj
             [
               ("update", Json.Num (float_of_int i));
               ("live_constraints", Json.Num (float_of_int live));
               ("cells_live", Json.Num (float_of_int cells));
             ])
         samples)
    "BENCH_stream.json"

(* ------------------------------------------------------------------ *)
(* Figure 4 *)
(* ------------------------------------------------------------------ *)

let fig4 () =
  banner "FIG4: correctly localized targets vs number of landmarks (paper Figure 4)";
  let sweep = Eval.Sweep.run ~seed ~n_hosts ~landmark_counts:[ 10; 20; 30; 40; 50 ] () in
  Eval.Report.print_figure4 sweep;
  (match (sweep, List.rev sweep) with
  | first :: _, last :: _ ->
      Printf.printf
        "# shape check: Octant hit-rate %.0f%% -> %.0f%% as landmarks grow (stays high);\n"
        (100.0 *. first.Eval.Sweep.octant_hit_rate)
        (100.0 *. last.Eval.Sweep.octant_hit_rate);
      Printf.printf "#              GeoLim hit-rate %.0f%% -> %.0f%% (paper: GeoLim degrades)\n"
        (100.0 *. first.Eval.Sweep.geolim_hit_rate)
        (100.0 *. last.Eval.Sweep.geolim_hit_rate)
  | _ -> ())

(* ------------------------------------------------------------------ *)
(* Ablation *)
(* ------------------------------------------------------------------ *)

let ablation () =
  banner "ABLATION: each Octant mechanism disabled in turn (paper sections 2.1-2.5)";
  Eval.Report.print_ablation (Eval.Ablation.run ~seed ~n_hosts ())

(* ------------------------------------------------------------------ *)
(* Robustness to erroneous constraints (paper section 2.4) *)
(* ------------------------------------------------------------------ *)

let robustness () =
  banner "ROBUSTNESS: corrupted measurements (paper section 2.4)";
  let points = Eval.Robustness.run ~seed ~n_hosts () in
  Printf.printf "# a fraction of each target's RTTs is replaced by 0.3x-3x the true value\n";
  Printf.printf "# %-10s %14s %12s %14s %12s %14s\n" "corrupt%" "octant_med_mi" "octant_hit%"
    "geolim_med_mi" "geolim_hit%" "geolim_empty%";
  List.iter
    (fun p ->
      Printf.printf "  %-10.0f %14.1f %12.1f %14.1f %12.1f %14.1f\n"
        (100.0 *. p.Eval.Robustness.corruption_rate)
        p.Eval.Robustness.octant_median_miles
        (100.0 *. p.Eval.Robustness.octant_hit_rate)
        p.Eval.Robustness.geolim_median_miles
        (100.0 *. p.Eval.Robustness.geolim_hit_rate)
        (100.0 *. p.Eval.Robustness.geolim_empty_rate))
    points;
  Printf.printf
    "# the paper's brittleness argument: a pure intersection collapses to the\n\
     # empty set under a single erroneous constraint, while the weighted\n\
     # arrangement only demotes the true cell by one weight step.\n"

(* ------------------------------------------------------------------ *)
(* Byzantine landmarks (BFT-PoLoc-style coalitions) *)
(* ------------------------------------------------------------------ *)

(* Acceptance thresholds, asserted here and re-checked by CI's jq pass
   over BENCH_adversary.json.  Derived from the committed snapshot with
   headroom: parity at f=0 is exact in expectation (hardening must not
   change the clean answer much), the f=3 multiple bounds how far three
   colluders may drag the hardened median from the clean run, and GeoLim's
   empty-rate collapse is the brittleness the paper predicts for pure
   intersections. *)
let adv_max_parity_ratio_f0 = 1.25
let adv_max_hardened_f3_multiple = 3.0
let adv_min_geolim_empty_f3 = 0.5

let adversary_bench () =
  banner "ADVERSARY: colluding landmarks, error vs coalition size f (BFT-PoLoc threat model)";
  let bench_t0 = Emit.now () in
  let n_hosts = 41 in
  let fs = [ 0; 1; 2; 3; 4 ] in
  let points = Eval.Adversarial.run ~seed ~n_hosts ~fs () in
  Printf.printf
    "# %d hosts split half landmarks / half targets; f colluders fabricate\n\
     # mutually consistent RTTs placing each target at a common fake region\n"
    n_hosts;
  Printf.printf "# %-4s %12s %6s %12s %6s %12s %6s %8s %12s\n" "f" "octant_mi" "hit%"
    "harden_mi" "hit%" "geolim_mi" "hit%" "empty%" "geoping_mi";
  List.iter
    (fun (p : Eval.Adversarial.point) ->
      Printf.printf "  %-4d %12.1f %6.1f %12.1f %6.1f %12.1f %6.1f %8.1f %12.1f\n" p.f
        p.octant_median_miles
        (100.0 *. p.octant_hit_rate)
        p.hardened_median_miles
        (100.0 *. p.hardened_hit_rate)
        p.geolim_median_miles
        (100.0 *. p.geolim_hit_rate)
        (100.0 *. p.geolim_empty_rate)
        p.geoping_median_miles)
    points;
  let at f =
    match List.find_opt (fun (p : Eval.Adversarial.point) -> p.f = f) points with
    | Some p -> p
    | None ->
        Printf.eprintf "ADVERSARY FAIL: no curve point for f=%d\n" f;
        exit 1
  in
  let p0 = at 0 and p3 = at 3 in
  let parity_ratio =
    Float.max
      (p0.hardened_median_miles /. Float.max p0.octant_median_miles 0.1)
      (p0.octant_median_miles /. Float.max p0.hardened_median_miles 0.1)
  in
  let hardened_f3_multiple = p3.hardened_median_miles /. Float.max p0.octant_median_miles 0.1 in
  Printf.printf
    "# gates: f=0 parity ratio %.2f (<= %.2f), hardened f=3 multiple %.2fx (<= %.1fx),\n\
     #        GeoLim empty-rate at f=3 %.0f%% (>= %.0f%%)\n"
    parity_ratio adv_max_parity_ratio_f0 hardened_f3_multiple adv_max_hardened_f3_multiple
    (100.0 *. p3.geolim_empty_rate)
    (100.0 *. adv_min_geolim_empty_f3);
  let json_rows =
    List.map
      (fun (p : Eval.Adversarial.point) ->
        Json.Obj
          [
            ("f", Json.Num (float_of_int p.f));
            ("octant_median_miles", Json.num p.octant_median_miles);
            ("octant_hit_rate", Json.num p.octant_hit_rate);
            ("hardened_median_miles", Json.num p.hardened_median_miles);
            ("hardened_hit_rate", Json.num p.hardened_hit_rate);
            ("geolim_median_miles", Json.num p.geolim_median_miles);
            ("geolim_hit_rate", Json.num p.geolim_hit_rate);
            ("geolim_empty_rate", Json.num p.geolim_empty_rate);
            ("geoping_median_miles", Json.num p.geoping_median_miles);
          ])
      points
  in
  Emit.write ~bench:"adversary" ~t0:bench_t0
    ~fields:
      [
        ("scenario", Json.Str "coalition");
        ("hosts", Json.Num (float_of_int n_hosts));
        ("parity_ratio_f0", Json.num parity_ratio);
        ("hardened_f3_multiple", Json.num hardened_f3_multiple);
        ("geolim_empty_rate_f3", Json.num p3.geolim_empty_rate);
        ("max_parity_ratio_f0", Json.num adv_max_parity_ratio_f0);
        ("max_hardened_f3_multiple", Json.num adv_max_hardened_f3_multiple);
        ("min_geolim_empty_f3", Json.num adv_min_geolim_empty_f3);
      ]
    ~gates:
      [
        Emit.gate "parity_f0" (parity_ratio <= adv_max_parity_ratio_f0)
          (Printf.sprintf
             "zero-adversary parity ratio %.2f (want <= %.2f; hardening must not distort the \
              clean run)"
             parity_ratio adv_max_parity_ratio_f0);
        Emit.gate "hardened_f3" (hardened_f3_multiple <= adv_max_hardened_f3_multiple)
          (Printf.sprintf "hardened median at f=3 is %.2fx the clean run (want <= %.1fx)"
             hardened_f3_multiple adv_max_hardened_f3_multiple);
        Emit.gate "geolim_collapse_f3" (p3.geolim_empty_rate >= adv_min_geolim_empty_f3)
          (Printf.sprintf "GeoLim empty-rate at f=3 is %.0f%% (expected collapse >= %.0f%%)"
             (100.0 *. p3.geolim_empty_rate)
             (100.0 *. adv_min_geolim_empty_f3));
      ]
    ~rows:json_rows "BENCH_adversary.json"

(* ------------------------------------------------------------------ *)
(* Secondary landmarks (paper section 2: primary vs secondary landmarks) *)
(* ------------------------------------------------------------------ *)

let secondary () =
  banner "SECONDARY: region-valued secondary landmarks (paper section 2)";
  let rows = Eval.Secondary.run ~seed ~n_hosts ~n_primary:12 () in
  Printf.printf "# 12 primary landmarks; every other host localized, then reused as a\n";
  Printf.printf "# secondary landmark with a region-valued position.\n";
  Printf.printf "# %-18s %10s %10s %8s %16s\n" "condition" "median_mi" "p90_mi" "hit%" "median_area_mi2";
  List.iter
    (fun r ->
      Printf.printf "  %-18s %10.1f %10.1f %8.1f %16.0f\n" r.Eval.Secondary.label
        r.Eval.Secondary.median_miles r.Eval.Secondary.p90_miles
        (100.0 *. r.Eval.Secondary.hit_rate) r.Eval.Secondary.median_area_sq_miles)
    rows;
  Printf.printf
    "# the framework accepts landmarks whose own position is only a region:\n\
     # positive constraints dilate by the region, negative ones erode to the\n\
     # common disk (paper section 2).  With this substrate's region sizes the\n\
     # net effect is a modest coverage gain at a small median cost; the same\n\
     # mechanism applied to routers (piecewise, section 2.3) is where the\n\
     # paper gets its large wins.\n"

(* ------------------------------------------------------------------ *)
(* Vivaldi comparison (extension; paper references Vivaldi in section 2.2) *)
(* ------------------------------------------------------------------ *)

let vivaldi () =
  banner "VIVALDI: idealized coordinate embedding vs Octant (extension)";
  let deployment = Netsim.Deployment.make ~seed ~n_hosts () in
  let bridge = Eval.Bridge.create deployment in
  let n = Eval.Bridge.host_count bridge in
  let all = Array.init n Fun.id in
  let errs = ref [] in
  for target = 0 to n - 1 do
    let truth = Eval.Bridge.position bridge target in
    let landmarks = Eval.Bridge.landmarks_for bridge ~exclude:target all in
    let lm_indices = Array.of_list (List.filter (fun i -> i <> target) (Array.to_list all)) in
    let inter = Eval.Bridge.inter_rtt_for bridge lm_indices in
    let obs = Eval.Bridge.observations bridge ~with_traceroutes:false ~landmark_indices:all ~target in
    let v = Baselines.Vivaldi.embed ~landmarks ~inter_landmark_rtt_ms:inter () in
    let r = Baselines.Vivaldi.localize v ~target_rtt_ms:obs.Octant.Pipeline.target_rtt_ms in
    errs :=
      Geo.Geodesy.miles_of_km (Geo.Geodesy.distance_km r.Baselines.Vivaldi.point truth) :: !errs
  done;
  let arr = Array.of_list !errs in
  Printf.printf
    "Vivaldi (anchored to true landmark positions, best case for embeddings):\n";
  Printf.printf "  median=%7.1f mi  p90=%7.1f  worst=%7.1f\n" (Stats.Sample.median arr)
    (Stats.Sample.percentile 90.0 arr)
    (Stats.Sample.max arr);
  Printf.printf
    "# even with ground-truth anchoring, a metric embedding cannot express\n\
     # the asymmetric, non-metric structure that Octant's constraints capture.\n"

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks *)
(* ------------------------------------------------------------------ *)

let micro () =
  banner "MICRO: Bechamel benchmarks of the geometric and solver kernels";
  let open Bechamel in
  let deployment = Netsim.Deployment.make ~seed ~n_hosts:20 () in
  let bridge = Eval.Bridge.create deployment in
  let n = Eval.Bridge.host_count bridge in
  let all = Array.init n Fun.id in
  let target = 0 in
  let landmarks = Eval.Bridge.landmarks_for bridge ~exclude:target all in
  let lm_indices = Array.of_list (List.filter (fun i -> i <> target) (Array.to_list all)) in
  let inter = Eval.Bridge.inter_rtt_for bridge lm_indices in
  let obs = Eval.Bridge.observations bridge ~landmark_indices:all ~target in
  let ctx = Octant.Pipeline.prepare ~landmarks ~inter_landmark_rtt_ms:inter () in
  let disk_a = Geo.Region.disk ~center:(Geo.Point.make 0.0 0.0) ~radius:500.0 () in
  let disk_b = Geo.Region.disk ~center:(Geo.Point.make 300.0 100.0) ~radius:400.0 () in
  let ring =
    Geo.Region.annulus ~center:(Geo.Point.make 100.0 0.0) ~r_inner:200.0 ~r_outer:600.0 ()
  in
  let positions = Array.map (fun l -> l.Octant.Pipeline.lm_position) landmarks in
  let tests =
    Test.make_grouped ~name:"octant"
      [
        Test.make ~name:"region-inter-disk-disk"
          (Staged.stage (fun () -> ignore (Geo.Region.inter disk_a disk_b)));
        Test.make ~name:"region-diff-disk-ring"
          (Staged.stage (fun () -> ignore (Geo.Region.diff disk_a ring)));
        Test.make ~name:"bezier-circle-flatten"
          (Staged.stage (fun () ->
               ignore
                 (Geo.Bezier.to_polygon ~tolerance:0.5
                    (Geo.Bezier.circle ~center:Geo.Point.zero ~radius:300.0))));
        Test.make ~name:"convex-hull-50pts"
          (Staged.stage (fun () ->
               let rng = Stats.Rng.create 5 in
               let pts =
                 Array.init 50 (fun _ ->
                     Geo.Point.make (Stats.Rng.uniform rng 0.0 100.0)
                       (Stats.Rng.uniform rng 0.0 100.0))
               in
               ignore (Geo.Convex_hull.hull pts)));
        Test.make ~name:"heights-lsq-19-landmarks"
          (Staged.stage (fun () ->
               ignore (Octant.Heights.solve_landmarks ~positions ~rtt_ms:inter)));
        Test.make ~name:"full-localization-19lm"
          (Staged.stage (fun () ->
               ignore (Octant.Pipeline.localize ~undns:Eval.Bridge.undns ctx obs)));
      ]
  in
  let cfg = Benchmark.cfg ~limit:50 ~quota:(Time.second 1.5) ~kde:(Some 10) () in
  let instances = Toolkit.Instance.[ monotonic_clock ] in
  let raw = Benchmark.all cfg instances tests in
  let results =
    Analyze.all
      (Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |])
      Toolkit.Instance.monotonic_clock raw
  in
  let rows = ref [] in
  Hashtbl.iter
    (fun name result ->
      match Analyze.OLS.estimates result with
      | Some [ est ] -> rows := (name, est) :: !rows
      | _ -> ())
    results;
  List.iter
    (fun (name, ns) ->
      if ns > 1e6 then Printf.printf "%-40s %10.2f ms/op\n" name (ns /. 1e6)
      else if ns > 1e3 then Printf.printf "%-40s %10.2f us/op\n" name (ns /. 1e3)
      else Printf.printf "%-40s %10.0f ns/op\n" name ns)
    (List.sort compare !rows)

(* ------------------------------------------------------------------ *)

let () =
  let what = if Array.length Sys.argv > 1 then Sys.argv.(1) else "all" in
  match what with
  | "fig2" -> fig2 ()
  | "fig3" -> ignore (fig3 ())
  | "fig4" -> fig4 ()
  | "ablation" -> ablation ()
  | "vivaldi" -> vivaldi ()
  | "secondary" -> secondary ()
  | "robustness" -> robustness ()
  | "adversary" -> adversary_bench ()
  | "stream" -> stream_bench ()
  | "timing" -> timing (Eval.Study.run ~seed ~n_hosts ())
  | "batch" -> batch ()
  | "serve" -> serve_bench ()
  | "shard" -> shard_bench ()
  | "geom" -> geom ()
  | "micro" -> micro ()
  | "all" ->
      fig2 ();
      let study = fig3 () in
      fig4 ();
      ablation ();
      robustness ();
      adversary_bench ();
      stream_bench ();
      secondary ();
      vivaldi ();
      timing study;
      batch ();
      serve_bench ();
      shard_bench ();
      geom ();
      micro ()
  | other ->
      Printf.eprintf "unknown bench target %S (fig2|fig3|fig4|ablation|robustness|adversary|stream|secondary|vivaldi|timing|batch|serve|shard|geom|micro|all)\n" other;
      exit 1
