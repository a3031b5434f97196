(* Umbrella test runner, plus the end-to-end smoke suite.

   The smoke test is deliberately self-contained: a seeded 12-landmark
   topology with physically consistent RTTs (propagation delay times a
   route-inflation factor, plus seeded jitter), no simulator involved.  If
   this fails, the pipeline itself is broken — not the netsim substrate. *)

let n_landmarks = 12

(* Landmarks scattered over a continent-sized box; the target sits in the
   middle of the cloud so it is surrounded, the geometry Octant expects. *)
let topology () =
  let rng = Stats.Rng.create 1207 in
  let landmarks =
    Array.init n_landmarks (fun i ->
        {
          Octant.Pipeline.lm_key = i;
          lm_position =
            Geo.Geodesy.coord
              ~lat:(Stats.Rng.uniform rng 31.0 47.0)
              ~lon:(Stats.Rng.uniform rng (-118.0) (-78.0));
        })
  in
  let truth = Geo.Geodesy.coord ~lat:39.3 ~lon:(-96.2) in
  (* RTT = inflated propagation + a queuing floor + seeded jitter; the
     same model for landmark-landmark and landmark-target paths, so the
     calibration learned on the former transfers to the latter. *)
  let rtt a b =
    let prop = Geo.Geodesy.distance_to_min_rtt_ms (Geo.Geodesy.distance_km a b) in
    (1.35 *. prop) +. 2.0 +. Stats.Rng.uniform rng 0.0 3.0
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
  let target_rtts = Array.map (fun l -> rtt l.Octant.Pipeline.lm_position truth) landmarks in
  (landmarks, inter, truth, Octant.Pipeline.observations_of_rtts target_rtts)

let localize_once () =
  let landmarks, inter, truth, obs = topology () in
  let ctx = Octant.Pipeline.prepare ~landmarks ~inter_landmark_rtt_ms:inter () in
  (Octant.Pipeline.localize ctx obs, truth)

let test_smoke_localization () =
  let est, truth = localize_once () in
  let area = est.Octant.Estimate.area_km2 in
  if not (Float.is_finite area && area > 0.0) then
    Alcotest.failf "smoke: degenerate region area %f" area;
  if not (Octant.Estimate.covers est truth) then
    Alcotest.failf "smoke: truth not inside the estimated region (error %.0f mi, area %.0f km2)"
      (Octant.Estimate.error_miles est truth)
      area;
  (* Sanity on the point estimate too: same side of the continent. *)
  if Octant.Estimate.error_miles est truth > 1500.0 then
    Alcotest.failf "smoke: point estimate %.0f mi off" (Octant.Estimate.error_miles est truth)

let test_smoke_telemetry_enabled () =
  Octant.Telemetry.reset ();
  Octant.Telemetry.enable ();
  Fun.protect ~finally:Octant.Telemetry.disable (fun () -> ignore (localize_once ()));
  let snap = Octant.Telemetry.snapshot () in
  let counter d n =
    List.fold_left
      (fun acc c ->
        if c.Octant.Telemetry.c_domain = d && c.Octant.Telemetry.c_name = n then
          c.Octant.Telemetry.c_value
        else acc)
      0 snap.Octant.Telemetry.counters
  in
  Alcotest.(check int) "one prepare" 1 (counter "pipeline" "contexts_prepared");
  Alcotest.(check int) "one target" 1 (counter "pipeline" "targets_localized");
  if counter "clip" "inter" = 0 then Alcotest.fail "no clip work recorded";
  if counter "solver" "constraints_added" = 0 then Alcotest.fail "no solver work recorded";
  if snap.Octant.Telemetry.spans = [] then Alcotest.fail "no spans recorded";
  Octant.Telemetry.reset ()

let test_smoke_telemetry_disabled () =
  Octant.Telemetry.disable ();
  Octant.Telemetry.reset ();
  ignore (localize_once ());
  let events = Octant.Telemetry.total_events (Octant.Telemetry.snapshot ()) in
  Alcotest.(check int) "disabled sink records nothing" 0 events

let smoke_suite =
  [
    ( "smoke",
      [
        Alcotest.test_case "12-landmark localization" `Quick test_smoke_localization;
        Alcotest.test_case "telemetry counters when enabled" `Quick test_smoke_telemetry_enabled;
        Alcotest.test_case "telemetry absent when disabled" `Quick test_smoke_telemetry_disabled;
      ] );
  ]

let () =
  Alcotest.run "octant-repro"
    (Test_geo.suite @ Test_geom_props.suite @ Test_clip_equiv.suite @ Test_stats.suite
   @ Test_linalg.suite
   @ Test_netsim.suite @ Test_core.suite @ Test_harden.suite @ Test_telemetry.suite
   @ Test_baselines.suite @ Test_adversary.suite @ Test_integration.suite
   @ Test_batch_golden.suite @ Test_robustness_golden.suite @ Test_work_ledger.suite
   @ Test_parity.suite
   @ Test_lru.suite @ Test_wire_fuzz.suite @ Test_serve.suite @ Test_stream.suite
   @ Test_backends.suite
   @ Test_planet.suite @ Test_ring.suite @ Test_shard.suite @ smoke_suite)
