(* Tests for the Octant core library, mostly on synthetic geometry where
   ground truth is known exactly. *)

open Octant

let pt = Geo.Point.make

let check_float ?(eps = 1e-9) msg expected actual =
  if Float.abs (expected -. actual) > eps then
    Alcotest.failf "%s: expected %.12g, got %.12g" msg expected actual

(* ------------------------------------------------------------------ *)
(* Weight *)
(* ------------------------------------------------------------------ *)

let test_weight_decay () =
  let p = Weight.default in
  let w0 = Weight.of_latency p 0.0 in
  let w1 = Weight.of_latency p 35.0 in
  let w2 = Weight.of_latency p 70.0 in
  check_float ~eps:1e-9 "zero latency weight" p.Weight.scale w0;
  check_float ~eps:1e-9 "e-folding" (w0 /. Float.exp 1.0) w1;
  check_float ~eps:1e-9 "double e-folding" (w0 /. Float.exp 2.0) w2

let test_weight_floor () =
  let w = Weight.of_latency Weight.default 10_000.0 in
  check_float "floor" Weight.default.Weight.floor w

let test_weight_uniform () =
  check_float "uniform at 0" 1.0 (Weight.of_latency Weight.uniform 0.0);
  check_float "uniform at 500" 1.0 (Weight.of_latency Weight.uniform 500.0)

(* of_latency is total: raw measurement vectors reach it unvalidated
   (clock skew can produce negative RTTs, height adjustment can
   over-subtract), so every float must map to a usable weight. *)
let test_weight_total () =
  let p = Weight.default in
  (* Negative latencies clamp to zero — maximum trust, not an exception. *)
  check_float "negative clamps to max weight" p.Weight.scale (Weight.of_latency p (-1.0));
  check_float "deeply negative clamps too" p.Weight.scale (Weight.of_latency p (-1e12));
  check_float "zero is the scale" p.Weight.scale (Weight.of_latency p 0.0);
  check_float "infinite latency floors" p.Weight.floor (Weight.of_latency p Float.infinity);
  check_float "nan floors" p.Weight.floor (Weight.of_latency p Float.nan)

let test_weight_monotone () =
  let p = Weight.default in
  let prev = ref (Weight.of_latency p (-5.0)) in
  List.iter
    (fun rtt ->
      let w = Weight.of_latency p rtt in
      if w > !prev +. 1e-15 then Alcotest.failf "weight increased at %.1f ms" rtt;
      if w < p.Weight.floor -. 1e-15 then Alcotest.failf "weight below floor at %.1f ms" rtt;
      prev := w)
    [ -1.0; 0.0; 1.0; 10.0; 50.0; 200.0; 1_000.0; 100_000.0; Float.infinity ]

(* ------------------------------------------------------------------ *)
(* Calibration *)
(* ------------------------------------------------------------------ *)

(* Synthetic scatter: distance = 80 * latency with +-20% spread. *)
let synthetic_samples =
  List.init 40 (fun i ->
      let lat = 2.0 +. float_of_int i in
      let spread = 0.8 +. (0.4 *. float_of_int (i mod 5) /. 4.0) in
      { Calibration.latency_ms = lat; distance_km = 80.0 *. lat *. spread })

let test_calibration_bounds_envelope () =
  let cal = Calibration.calibrate ~upper_margin:1.0 ~lower_margin:1.0 synthetic_samples in
  (* Within the sampled range, every sample respects the bounds. *)
  List.iter
    (fun s ->
      let u = Calibration.upper_km cal s.Calibration.latency_ms in
      let l = Calibration.lower_km cal s.Calibration.latency_ms in
      if s.Calibration.distance_km > u +. 1e-6 then
        Alcotest.failf "sample above upper bound at %.1f ms" s.Calibration.latency_ms;
      if s.Calibration.distance_km < l -. 1e-6 then
        Alcotest.failf "sample below lower bound at %.1f ms" s.Calibration.latency_ms)
    synthetic_samples

let test_calibration_monotone_consistency () =
  let cal = Calibration.calibrate synthetic_samples in
  List.iter
    (fun rtt ->
      let u = Calibration.upper_km cal rtt and l = Calibration.lower_km cal rtt in
      assert (l >= 0.0);
      assert (l <= u))
    [ 0.5; 1.0; 5.0; 10.0; 20.0; 35.0; 50.0; 100.0; 400.0 ]

let test_calibration_respects_speed_of_light () =
  let cal = Calibration.calibrate synthetic_samples in
  List.iter
    (fun rtt ->
      assert (Calibration.upper_km cal rtt <= Geo.Geodesy.rtt_to_max_distance_km rtt +. 1.5))
    [ 1.0; 10.0; 50.0; 200.0 ]

let test_calibration_conservative () =
  let c = Calibration.conservative in
  check_float ~eps:1e-6 "conservative upper = sol" (Geo.Geodesy.rtt_to_max_distance_km 40.0)
    (Calibration.upper_km c 40.0);
  check_float "conservative lower = 0" 0.0 (Calibration.lower_km c 40.0)

let test_calibration_cutoff_beyond_sentinel () =
  let cal = Calibration.calibrate ~cutoff_percentile:50.0 synthetic_samples in
  let rho = Calibration.cutoff_ms cal in
  assert (rho > 0.0);
  (* Beyond the cutoff the lower bound freezes. *)
  let l1 = Calibration.lower_km cal (rho +. 5.0) in
  let l2 = Calibration.lower_km cal (rho +. 50.0) in
  check_float ~eps:1e-6 "lower frozen past cutoff" l1 l2;
  (* The upper bound relaxes towards (but never beyond) speed of light. *)
  let u1 = Calibration.upper_km cal (rho +. 5.0) in
  let u2 = Calibration.upper_km cal (rho +. 50.0) in
  assert (u2 >= u1);
  assert (u2 <= Geo.Geodesy.rtt_to_max_distance_km (rho +. 50.0) +. 1.5)

let test_calibration_below_range_clamps () =
  let cal = Calibration.calibrate ~upper_margin:1.0 synthetic_samples in
  (* Left of the sampled range: upper bound clamps to the leftmost hull
     knot (no aggressive scaling towards zero), lower bound vanishes. *)
  let u_left = Calibration.upper_km cal 0.1 in
  let min_lat = 2.0 in
  let u_min = Calibration.upper_km cal min_lat in
  assert (u_left <= u_min +. 1e-6);
  assert (u_left >= Float.min u_min (Geo.Geodesy.rtt_to_max_distance_km 0.1));
  check_float "no negative info below range" 0.0 (Calibration.lower_km cal 0.1)

let test_calibration_rejects_degenerate_input () =
  match Calibration.calibrate [ { Calibration.latency_ms = 5.0; distance_km = 100.0 } ] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "single sample must be rejected"

let test_calibration_margins_widen () =
  let tight = Calibration.calibrate ~upper_margin:1.0 ~lower_margin:1.0 synthetic_samples in
  let slack = Calibration.calibrate ~upper_margin:1.2 ~lower_margin:0.7 synthetic_samples in
  List.iter
    (fun rtt ->
      assert (Calibration.upper_km slack rtt >= Calibration.upper_km tight rtt -. 1e-6);
      assert (Calibration.lower_km slack rtt <= Calibration.lower_km tight rtt +. 1e-6))
    [ 5.0; 15.0; 30.0 ]

let test_calibration_pool () =
  let cal1 = Calibration.calibrate synthetic_samples in
  let more =
    List.map
      (fun s -> { s with Calibration.distance_km = s.Calibration.distance_km *. 1.3 })
      synthetic_samples
  in
  let cal2 = Calibration.calibrate more in
  let pooled = Calibration.pool [ cal1; cal2 ] in
  (* Pooled upper bound dominates both inputs inside the range. *)
  List.iter
    (fun rtt ->
      assert (Calibration.upper_km pooled rtt >= Calibration.upper_km cal1 rtt -. 1e-6))
    [ 5.0; 15.0; 30.0 ]

let test_calibration_pool_threads_params () =
  (* Regression: pool used to drop its optional parameters and re-calibrate
     the merged samples with the defaults, so a pipeline configured with a
     custom cutoff/sentinel got a mismatched pooled calibration. *)
  let cal = Calibration.calibrate synthetic_samples in
  let default_pool = Calibration.pool [ cal ] in
  let tight = Calibration.pool ~cutoff_percentile:50.0 [ cal ] in
  assert (Calibration.cutoff_ms tight < Calibration.cutoff_ms default_pool -. 1e-9);
  (* For the sentinel check, use a scatter well below the speed-of-light
     line so the sol cap does not mask the sentinel slope difference. *)
  let low =
    Calibration.calibrate
      (List.map
         (fun s -> { s with Calibration.distance_km = s.Calibration.distance_km *. 0.4 })
         synthetic_samples)
  in
  let low_default = Calibration.pool [ low ] in
  let far_sentinel = Calibration.pool ~sentinel_ms:2000.0 [ low ] in
  let probe = Calibration.cutoff_ms low_default +. 30.0 in
  if Calibration.upper_km far_sentinel probe = Calibration.upper_km low_default probe then
    Alcotest.fail "sentinel_ms was not forwarded to the pooled calibration"

(* ------------------------------------------------------------------ *)
(* Heights *)
(* ------------------------------------------------------------------ *)

(* Synthetic landmark set with known heights and a known inflation slope:
   rtt(i,j) = (1+beta) prop(i,j) + h_i + h_j, recovered exactly. *)
let height_fixture () =
  let positions =
    [|
      Geo.Geodesy.coord ~lat:40.0 ~lon:(-80.0);
      Geo.Geodesy.coord ~lat:42.0 ~lon:(-74.0);
      Geo.Geodesy.coord ~lat:34.0 ~lon:(-118.0);
      Geo.Geodesy.coord ~lat:48.0 ~lon:(-122.0);
      Geo.Geodesy.coord ~lat:33.0 ~lon:(-84.0);
      Geo.Geodesy.coord ~lat:45.0 ~lon:(-93.0);
    |]
  in
  let true_heights = [| 1.5; 0.5; 3.0; 2.0; 0.8; 1.2 |] in
  let beta = 0.35 in
  let n = Array.length positions in
  let rtt = Array.make_matrix n n 0.0 in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      if i <> j then begin
        let prop =
          Geo.Geodesy.distance_to_min_rtt_ms (Geo.Geodesy.distance_km positions.(i) positions.(j))
        in
        rtt.(i).(j) <- ((1.0 +. beta) *. prop) +. true_heights.(i) +. true_heights.(j)
      end
    done
  done;
  (positions, true_heights, beta, rtt)

let test_heights_exact_recovery () =
  let positions, true_heights, beta, rtt = height_fixture () in
  let r = Heights.solve_landmarks ~positions ~rtt_ms:rtt in
  check_float ~eps:0.01 "beta recovered" beta r.Heights.inflation_beta;
  Array.iteri
    (fun i h -> check_float ~eps:0.05 (Printf.sprintf "height %d" i) true_heights.(i) h)
    r.Heights.heights_ms;
  assert (r.Heights.residual_ms < 0.05)

let test_heights_noisy_recovery () =
  let positions, true_heights, _, rtt = height_fixture () in
  let rng = Stats.Rng.create 44 in
  let n = Array.length positions in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      let noisy = rtt.(i).(j) +. Stats.Rng.uniform rng 0.0 0.4 in
      rtt.(i).(j) <- noisy;
      rtt.(j).(i) <- noisy
    done
  done;
  let r = Heights.solve_landmarks ~positions ~rtt_ms:rtt in
  Array.iteri
    (fun i h ->
      if Float.abs (h -. true_heights.(i)) > 0.6 then
        Alcotest.failf "noisy height %d: %.2f vs %.2f" i h true_heights.(i))
    r.Heights.heights_ms

let test_heights_nonnegative () =
  let positions, _, _, rtt = height_fixture () in
  (* Understate all RTTs so the unconstrained solution would go negative. *)
  let n = Array.length positions in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      if i <> j then
        rtt.(i).(j) <-
          Float.max 0.1
            (Geo.Geodesy.distance_to_min_rtt_ms
               (Geo.Geodesy.distance_km positions.(i) positions.(j))
            *. 0.999)
    done
  done;
  let r = Heights.solve_landmarks ~positions ~rtt_ms:rtt in
  Array.iter (fun h -> assert (h >= 0.0)) r.Heights.heights_ms

let test_heights_target_recovery () =
  let positions, true_heights, beta, rtt = height_fixture () in
  let landmark_result = Heights.solve_landmarks ~positions ~rtt_ms:rtt in
  (* Target in Chicago with height 2.5. *)
  let target_pos = Geo.Geodesy.coord ~lat:41.88 ~lon:(-87.63) in
  let h_target = 2.5 in
  let rtts =
    Array.mapi
      (fun i p ->
        ((1.0 +. beta) *. Geo.Geodesy.distance_to_min_rtt_ms (Geo.Geodesy.distance_km p target_pos))
        +. true_heights.(i) +. h_target)
      positions
  in
  let tr =
    Heights.solve_target ~inflation_beta:landmark_result.Heights.inflation_beta ~positions
      ~landmark_heights_ms:landmark_result.Heights.heights_ms ~rtt_to_target_ms:rtts ()
  in
  check_float ~eps:0.4 "target height" h_target tr.Heights.height_ms;
  (* The paper notes the coarse position has high error; here (noise-free)
     it should still land within a few hundred km. *)
  if Geo.Geodesy.distance_km tr.Heights.coarse_position target_pos > 500.0 then
    Alcotest.failf "coarse position %.0f km off"
      (Geo.Geodesy.distance_km tr.Heights.coarse_position target_pos)

let test_heights_adjusted_rtt_floor () =
  check_float "normal subtraction" 10.0
    (Heights.adjusted_rtt ~landmark_height_ms:3.0 ~target_height_ms:2.0 15.0);
  (* Over-subtraction keeps 20% of the raw RTT. *)
  check_float "floor" 2.0 (Heights.adjusted_rtt ~landmark_height_ms:20.0 ~target_height_ms:20.0 10.0)

let test_heights_errors () =
  (match
     Heights.solve_landmarks
       ~positions:[| Geo.Geodesy.coord ~lat:0.0 ~lon:0.0 |]
       ~rtt_ms:[| [| 0.0 |] |]
   with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "too few landmarks must fail")

(* ------------------------------------------------------------------ *)
(* Constraints *)
(* ------------------------------------------------------------------ *)

let test_constr_ring_shape () =
  let c =
    Constr.ring ~center:(pt 0.0 0.0) ~r_inner_km:100.0 ~r_outer_km:300.0 ~weight:0.5
      ~source:"test"
  in
  let r = Constr.region_of_shape c.Constr.shape in
  assert (Geo.Region.contains r (pt 200.0 0.0));
  assert (not (Geo.Region.contains r (pt 50.0 0.0)));
  assert (not (Geo.Region.contains r (pt 400.0 0.0)))

let test_constr_ring_degenerates_to_disk () =
  let c =
    Constr.ring ~center:(pt 0.0 0.0) ~r_inner_km:0.0 ~r_outer_km:100.0 ~weight:1.0 ~source:"t"
  in
  match c.Constr.shape with
  | Constr.Disk { radius_km; _ } -> check_float "disk radius" 100.0 radius_km
  | _ -> Alcotest.fail "expected disk"

let test_constr_classify_disk () =
  let shape = Constr.Disk { center = pt 0.0 0.0; radius_km = 100.0 } in
  let box lo hi = (pt lo lo, pt hi hi) in
  assert (Constr.classify_box shape (box (-10.0) 10.0) = Constr.Cell_inside);
  assert (Constr.classify_box shape (box 200.0 300.0) = Constr.Cell_outside);
  assert (Constr.classify_box shape (box 50.0 150.0) = Constr.Straddles)

let test_constr_classify_ring () =
  let shape = Constr.Ring { center = pt 0.0 0.0; r_inner_km = 50.0; r_outer_km = 200.0 } in
  (* Box fully between the radii. *)
  assert (Constr.classify_box shape (pt 60.0 60.0, pt 100.0 100.0) = Constr.Cell_inside);
  (* Box inside the hole. *)
  assert (Constr.classify_box shape (pt (-10.0) (-10.0), pt 10.0 10.0) = Constr.Cell_outside);
  (* Box beyond the outer radius. *)
  assert (Constr.classify_box shape (pt 300.0 300.0, pt 400.0 400.0) = Constr.Cell_outside);
  (* Box crossing the inner boundary. *)
  assert (Constr.classify_box shape (pt 20.0 20.0, pt 80.0 80.0) = Constr.Straddles)

let test_constr_of_rtt_point_landmark () =
  let cal = Calibration.calibrate ~upper_margin:1.0 ~lower_margin:1.0 synthetic_samples in
  let cs =
    Constr.of_rtt ~calibration:cal ~landmark_position:(`Point (pt 0.0 0.0)) ~adjusted_rtt_ms:20.0
      ~weight:0.7 ~source:"L0" ()
  in
  Alcotest.(check int) "one ring constraint" 1 (List.length cs);
  match (List.hd cs).Constr.shape with
  | Constr.Ring { r_inner_km; r_outer_km; _ } ->
      check_float ~eps:1e-6 "outer = R_L" (Calibration.upper_km cal 20.0) r_outer_km;
      check_float ~eps:1e-6 "inner = r_L" (Calibration.lower_km cal 20.0) r_inner_km
  | _ -> Alcotest.fail "expected ring"

let test_constr_of_rtt_region_landmark () =
  let cal = Calibration.calibrate ~upper_margin:1.0 ~lower_margin:1.0 synthetic_samples in
  let beta = Geo.Region.disk ~center:(pt 0.0 0.0) ~radius:50.0 () in
  let cs =
    Constr.of_rtt ~calibration:cal ~landmark_position:(`Region beta) ~adjusted_rtt_ms:20.0
      ~weight:0.7 ~source:"R" ()
  in
  (* Positive (dilated) + negative (eroded) expected at this latency. *)
  assert (List.length cs >= 1);
  let upper = Calibration.upper_km cal 20.0 in
  let positive =
    List.find (fun c -> c.Constr.polarity = Constr.Positive) cs
  in
  let r = Constr.region_of_shape positive.Constr.shape in
  (* The dilated region must contain every point within upper of the disk. *)
  assert (Geo.Region.contains r (pt (50.0 +. (upper *. 0.95)) 0.0));
  assert (Geo.Region.contains r (pt 0.0 0.0))

let test_constr_negative_discount_split () =
  let cal = Calibration.calibrate ~upper_margin:1.0 ~lower_margin:1.0 synthetic_samples in
  let cs =
    Constr.of_rtt ~negative_weight_factor:0.5 ~calibration:cal
      ~landmark_position:(`Point (pt 0.0 0.0)) ~adjusted_rtt_ms:20.0 ~weight:0.8 ~source:"L" ()
  in
  Alcotest.(check int) "split into two constraints" 2 (List.length cs);
  let pos = List.find (fun c -> c.Constr.polarity = Constr.Positive) cs in
  let neg = List.find (fun c -> c.Constr.polarity = Constr.Negative) cs in
  check_float ~eps:1e-9 "positive keeps full weight" 0.8 pos.Constr.weight;
  check_float ~eps:1e-9 "negative discounted" 0.4 neg.Constr.weight;
  (match (pos.Constr.shape, neg.Constr.shape) with
  | Constr.Disk { radius_km = rp; _ }, Constr.Disk { radius_km = rn; _ } ->
      check_float ~eps:1e-6 "positive radius = R_L" (Calibration.upper_km cal 20.0) rp;
      check_float ~eps:1e-6 "negative radius = r_L" (Calibration.lower_km cal 20.0) rn
  | _ -> Alcotest.fail "expected two disks")

let test_constr_negative_weight_rejected () =
  match Constr.positive_disk ~center:(pt 0. 0.) ~radius_km:10.0 ~weight:(-1.0) ~source:"x" with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "negative weight must be rejected"

(* ------------------------------------------------------------------ *)
(* Solver *)
(* ------------------------------------------------------------------ *)

let world100 =
  Geo.Region.of_polygon (Geo.Polygon.rectangle (pt (-1000.0) (-1000.0)) (pt 1000.0 1000.0))

let test_solver_single_positive () =
  let s = Solver.create ~world:world100 () in
  let c = Constr.positive_disk ~center:(pt 0.0 0.0) ~radius_km:100.0 ~weight:1.0 ~source:"a" in
  let s = Solver.add s c in
  Alcotest.(check int) "two cells" 2 (Solver.cell_count s);
  let est = Solver.solve ~area_threshold_km2:100.0 s in
  assert (Geo.Region.contains est.Solver.region (pt 0.0 0.0));
  assert (not (Geo.Region.contains est.Solver.region (pt 500.0 500.0)));
  check_float ~eps:1.0 "top weight" 1.0 est.Solver.weight

let test_solver_intersection_of_positives () =
  let s = Solver.create ~world:world100 () in
  let mk x = Constr.positive_disk ~center:(pt x 0.0) ~radius_km:150.0 ~weight:1.0 ~source:"d" in
  let s = Solver.add_all s [ mk 0.0; mk 100.0; mk 200.0 ] in
  let est = Solver.solve ~area_threshold_km2:10.0 s in
  (* Top cell = lens where all three disks overlap, around x = 100. *)
  assert (Geo.Region.contains est.Solver.region (pt 100.0 0.0));
  assert (not (Geo.Region.contains est.Solver.region (pt (-100.0) 0.0)));
  check_float ~eps:1e-9 "weight 3" 3.0 est.Solver.weight

let test_solver_negative_carves () =
  let s = Solver.create ~world:world100 () in
  let pos = Constr.positive_disk ~center:(pt 0.0 0.0) ~radius_km:200.0 ~weight:1.0 ~source:"p" in
  let neg = Constr.negative_disk ~center:(pt 0.0 0.0) ~radius_km:80.0 ~weight:1.0 ~source:"n" in
  let s = Solver.add_all s [ pos; neg ] in
  let est = Solver.solve ~area_threshold_km2:10.0 s in
  (* Top-weight cell: inside pos, outside neg. *)
  assert (Geo.Region.contains est.Solver.region (pt 150.0 0.0));
  assert (not (Geo.Region.contains est.Solver.region (pt 0.0 0.0)));
  check_float ~eps:1e-9 "weight 2" 2.0 est.Solver.weight

let test_solver_tolerates_one_bad_constraint () =
  (* Nine agreeing disks, one contradictory far-away disk: the paper's
     core robustness claim — the bad constraint must not collapse the
     estimate. *)
  let s = Solver.create ~world:world100 () in
  let good i =
    Constr.positive_disk
      ~center:(pt (10.0 *. float_of_int i) 0.0)
      ~radius_km:150.0 ~weight:0.5 ~source:"good"
  in
  let bad =
    Constr.positive_disk ~center:(pt 900.0 900.0) ~radius_km:50.0 ~weight:0.9 ~source:"bad"
  in
  let s = Solver.add_all s (bad :: List.init 9 good) in
  let est = Solver.solve ~area_threshold_km2:10.0 s in
  (* All good disks overlap around (45, 0). *)
  assert (Geo.Region.contains est.Solver.region (pt 45.0 0.0))

let test_solver_weighted_arbitration () =
  (* Two disjoint positives: heavier side wins. *)
  let s = Solver.create ~world:world100 () in
  let a = Constr.positive_disk ~center:(pt (-500.0) 0.0) ~radius_km:100.0 ~weight:0.4 ~source:"a" in
  let b = Constr.positive_disk ~center:(pt 500.0 0.0) ~radius_km:100.0 ~weight:0.9 ~source:"b" in
  let s = Solver.add_all s [ a; b ] in
  let est = Solver.solve ~area_threshold_km2:10.0 s in
  assert (Geo.Region.contains est.Solver.region (pt 500.0 0.0));
  assert (not (Geo.Region.contains est.Solver.region (pt (-500.0) 0.0)))

let test_solver_cell_cap () =
  let s = Solver.create ~world:world100 () in
  let rng = Stats.Rng.create 3 in
  let constraints =
    List.init 30 (fun i ->
        Constr.positive_disk
          ~center:(pt (Stats.Rng.uniform rng (-500.0) 500.0) (Stats.Rng.uniform rng (-500.0) 500.0))
          ~radius_km:(Stats.Rng.uniform rng 100.0 400.0)
          ~weight:0.3
          ~source:(Printf.sprintf "c%d" i))
  in
  let s = Solver.add_all ~max_cells:40 s constraints in
  assert (Solver.cell_count s <= 40)

let test_solver_area_conservation () =
  (* Cells partition the world: total area is preserved through adds. *)
  let s = Solver.create ~world:world100 () in
  let world_area = Geo.Region.area world100 in
  let constraints =
    [
      Constr.positive_disk ~center:(pt 0.0 0.0) ~radius_km:300.0 ~weight:0.5 ~source:"a";
      Constr.negative_disk ~center:(pt 100.0 50.0) ~radius_km:150.0 ~weight:0.5 ~source:"b";
      Constr.positive_disk ~center:(pt (-200.0) (-100.0)) ~radius_km:250.0 ~weight:0.5 ~source:"c";
    ]
  in
  let s = Solver.add_all ~max_cells:1000 s constraints in
  let total = List.fold_left (fun acc (r, _) -> acc +. Geo.Region.area r) 0.0 (Solver.cells s) in
  if Float.abs (total -. world_area) > 0.01 *. world_area then
    Alcotest.failf "area leak: %.0f vs %.0f" total world_area

let test_solver_cap_fusion_no_double_count () =
  (* Regression: the cap-fusion bounding rectangle overlaps the kept
     cells; solve used to concatenate it unclipped, so the reported region
     and area_km2 double-counted the overlap.  Four negative corner disks
     make the background the heaviest cell, forcing fusion to merge two
     far-apart disk interiors into a rectangle that overlaps it massively
     (raw pieces sum to ~1.5x the world).  Selecting every cell makes the
     union exactly the world, which bounds the legitimate area. *)
  let s = Solver.create ~world:world100 () in
  let neg x y =
    Constr.negative_disk ~center:(pt x y) ~radius_km:150.0 ~weight:1.0
      ~source:(Printf.sprintf "n%.0f,%.0f" x y)
  in
  let s =
    Solver.add_all ~max_cells:4 s
      [ neg (-600.0) (-600.0); neg 600.0 600.0; neg 600.0 (-600.0); neg (-600.0) 600.0 ]
  in
  assert (Solver.cell_count s <= 4);
  let world_area = Geo.Region.area world100 in
  let est = Solver.solve ~area_threshold_km2:1e12 ~weight_band:0.0 s in
  if est.Solver.area_km2 > 1.01 *. world_area then
    Alcotest.failf "double-counted area: %.0f vs world %.0f" est.Solver.area_km2 world_area;
  if est.Solver.area_km2 < 0.95 *. world_area then
    Alcotest.failf "area leak: %.0f vs world %.0f" est.Solver.area_km2 world_area

let test_solver_weight_band_inclusion () =
  (* Two near-top disjoint cells: the band pulls the runner-up into the
     region even after the area threshold is met. *)
  let s = Solver.create ~world:world100 () in
  let a = Constr.positive_disk ~center:(pt (-500.0) 0.0) ~radius_km:100.0 ~weight:1.00 ~source:"a" in
  let b = Constr.positive_disk ~center:(pt 500.0 0.0) ~radius_km:100.0 ~weight:0.95 ~source:"b" in
  let s = Solver.add_all s [ a; b ] in
  let narrow = Solver.solve ~area_threshold_km2:10.0 ~weight_band:1.0 s in
  assert (not (Geo.Region.contains narrow.Solver.region (pt 500.0 0.0)));
  let banded = Solver.solve ~area_threshold_km2:10.0 ~weight_band:0.9 s in
  assert (Geo.Region.contains banded.Solver.region (pt 500.0 0.0));
  assert (Geo.Region.contains banded.Solver.region (pt (-500.0) 0.0))

let test_solver_point_from_top_tier () =
  (* A heavy small cell and a slightly lighter huge cell: the point
     estimate must sit in the heavy cell, not at the area-weighted mean. *)
  let s = Solver.create ~world:world100 () in
  let heavy = Constr.positive_disk ~center:(pt 600.0 600.0) ~radius_km:50.0 ~weight:1.0 ~source:"h" in
  let big = Constr.positive_disk ~center:(pt (-400.0) (-400.0)) ~radius_km:500.0 ~weight:0.95 ~source:"b" in
  let s = Solver.add_all s [ heavy; big ] in
  let est = Solver.solve ~area_threshold_km2:10.0 ~weight_band:0.9 s in
  (* Region includes both (band), but the point stays at the heavy cell. *)
  assert (Geo.Point.dist est.Solver.point (pt 600.0 600.0) < 60.0)

let test_solver_estimate_area_threshold () =
  let s = Solver.create ~world:world100 () in
  let c = Constr.positive_disk ~center:(pt 0.0 0.0) ~radius_km:50.0 ~weight:1.0 ~source:"a" in
  let s = Solver.add s c in
  let small = Solver.solve ~area_threshold_km2:10.0 s in
  (* The top cell (disk, ~7854 km2) alone exceeds 10 km2: region = disk. *)
  check_float ~eps:500.0 "disk-sized region" 7850.0 small.Solver.area_km2

(* Strong arrangement invariant: for any point, the weight of the cell
   containing it equals the total weight of the constraints it satisfies
   (positive: inside; negative: outside).  Checked on random constraint
   systems at random points, away from boundaries. *)
let prop_solver_pointwise_weight =
  QCheck.Test.make ~name:"solver: cell weight = satisfied constraint weight" ~count:40
    QCheck.(pair (int_range 0 100000) (int_range 2 7))
    (fun (seed, n_constraints) ->
      let rng = Stats.Rng.create seed in
      let constraints =
        List.init n_constraints (fun i ->
            let center = pt (Stats.Rng.uniform rng (-600.0) 600.0) (Stats.Rng.uniform rng (-600.0) 600.0) in
            let radius_km = Stats.Rng.uniform rng 80.0 500.0 in
            let weight = Stats.Rng.uniform rng 0.1 1.0 in
            let source = Printf.sprintf "c%d" i in
            if Stats.Rng.bernoulli rng 0.3 then Constr.negative_disk ~center ~radius_km ~weight ~source
            else Constr.positive_disk ~center ~radius_km ~weight ~source)
      in
      let solver = Solver.add_all ~max_cells:10_000 (Solver.create ~world:world100 ()) constraints in
      let cells = Solver.cells solver in
      let ok = ref true in
      for _ = 1 to 25 do
        let p = pt (Stats.Rng.uniform rng (-990.0) 990.0) (Stats.Rng.uniform rng (-990.0) 990.0) in
        (* Skip points close to any constraint boundary (clip tolerance). *)
        let near_boundary =
          List.exists
            (fun c ->
              match c.Constr.shape with
              | Constr.Disk { center; radius_km } ->
                  Float.abs (Geo.Point.dist p center -. radius_km) < 5.0
              | _ -> false)
            constraints
        in
        if not near_boundary then begin
          let expected =
            List.fold_left
              (fun acc c ->
                match c.Constr.shape with
                | Constr.Disk { center; radius_km } ->
                    let inside = Geo.Point.dist p center <= radius_km in
                    let satisfied =
                      match c.Constr.polarity with
                      | Constr.Positive -> inside
                      | Constr.Negative -> not inside
                    in
                    if satisfied then acc +. c.Constr.weight else acc
                | _ -> acc)
              0.0 constraints
          in
          match List.find_opt (fun (r, _) -> Geo.Region.contains r p) cells with
          | Some (_, w) -> if Float.abs (w -. expected) > 1e-6 then ok := false
          | None -> ok := false (* cells partition the world *)
        end
      done;
      !ok)

(* ---- Pruned fold ([Solver.add_all_pruned]) ---- *)

(* Bit for bit: marshalled without sharing, equal estimates give equal
   bytes whatever their physical layout, and floats compare by bits. *)
let bit_identical (a : Solver.estimate) (b : Solver.estimate) =
  Marshal.to_string a [ Marshal.No_sharing ] = Marshal.to_string b [ Marshal.No_sharing ]

let counter_value (snap : Telemetry.snapshot) domain name =
  List.fold_left
    (fun acc (c : Telemetry.counter_view) ->
      if c.Telemetry.c_domain = domain && c.Telemetry.c_name = name then c.Telemetry.c_value
      else acc)
    0 snap.Telemetry.counters

(* Run [f] with telemetry on, from zero; returns its result and the
   counter snapshot it left. *)
let with_counters f =
  Telemetry.reset ();
  Telemetry.enable ();
  let r = Fun.protect ~finally:Telemetry.disable f in
  let snap = Telemetry.snapshot () in
  Telemetry.reset ();
  (r, snap)

(* The contract: whenever the pruned fold fuses no cells it equals the
   uncapped fold, and whenever the capped [add_all] fuses no cells it
   equals that fold.  Random disks, rings and negative disks in random
   order, with random solve settings, cap and hardening. *)
let prop_solver_pruned_contract =
  QCheck.Test.make ~name:"solver: pruned fold = unpruned fold without cap fusion" ~count:100
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let rng = Stats.Rng.create seed in
      let u = Stats.Rng.uniform rng in
      let constraints =
        List.init (Stats.Rng.int rng 26) (fun i ->
            let center = pt (u (-900.0) 900.0) (u (-900.0) 900.0) in
            let weight = u 0.0 1.0 and source = Printf.sprintf "c%d" i in
            match Stats.Rng.int rng 3 with
            | 0 -> Constr.positive_disk ~center ~radius_km:(u 50.0 700.0) ~weight ~source
            | 1 ->
                let r_inner_km = u 20.0 400.0 in
                Constr.ring ~center ~r_inner_km ~r_outer_km:(r_inner_km +. u 50.0 400.0) ~weight
                  ~source
            | _ -> Constr.negative_disk ~center ~radius_km:(u 50.0 700.0) ~weight ~source)
      in
      let area_threshold_km2 = 10.0 ** u 2.0 (Float.log10 3e6) in
      let weight_band = u 0.5 1.0 in
      let max_cells = 24 + Stats.Rng.int rng 233 in
      let harden =
        if Stats.Rng.bool rng then Some { Harden.default with Harden.trim_band_km = u 150.0 900.0 }
        else None
      in
      let base = Solver.create ~config:{ Solver.default_config with Solver.harden } ~world:world100 () in
      let tessellate (c : Constr.t) = Constr.region_of_shape ~segments:24 c.Constr.shape in
      let solve s = Solver.solve ~area_threshold_km2 ~weight_band s in
      let fusions f =
        let est, snap = with_counters (fun () -> solve (f ())) in
        (est, counter_value snap "solver" "cap_fusions")
      in
      let pruned, pruned_fused =
        fusions (fun () ->
            Solver.add_all_pruned ~max_cells ~tessellate ~area_threshold_km2 ~weight_band base
              constraints)
      in
      let capped, capped_fused = fusions (fun () -> Solver.add_all ~max_cells ~tessellate base constraints) in
      let uncapped = solve (Solver.add_all ~max_cells:max_int ~tessellate base constraints) in
      (pruned_fused > 0 || bit_identical pruned uncapped)
      && (capped_fused > 0 || bit_identical pruned capped))

(* Two heavy band disks far apart under hardening: the trim drops the
   second at solve time, yet the prune step counted its area, so the top
   cell alone misses the threshold and the certificate must fail. *)
let test_solver_prune_fallback () =
  let harden = Some { Harden.default with Harden.trim_band_km = 500.0 } in
  let base = Solver.create ~config:{ Solver.default_config with Solver.harden } ~world:world100 () in
  let disk x y r w s = Constr.positive_disk ~center:(pt x y) ~radius_km:r ~weight:w ~source:s in
  let constraints =
    [
      disk (-600.0) 0.0 100.0 1.0 "top";
      disk 600.0 0.0 100.0 0.98 "far band";
      disk 0.0 600.0 150.0 0.05 "light a";
      disk 0.0 (-600.0) 150.0 0.05 "light b";
      Constr.negative_disk ~center:(pt 300.0 300.0) ~radius_km:120.0 ~weight:0.04 ~source:"light c";
      disk (-200.0) 500.0 200.0 0.03 "light d";
    ]
  in
  let area_threshold_km2 = 60_000.0 and weight_band = 0.93 in
  let (pruned, audit), snap =
    with_counters (fun () ->
        Telemetry.Audit.collect (fun () ->
            Solver.add_all_pruned ~area_threshold_km2 ~weight_band base constraints))
  in
  Alcotest.(check int) "one fallback" 1 (counter_value snap "solver" "prune_fallbacks");
  if counter_value snap "solver" "cells_pruned" = 0 then Alcotest.fail "the pass pruned nothing";
  let plain, plain_audit = Telemetry.Audit.collect (fun () -> Solver.add_all base constraints) in
  let solve s = Solver.solve ~area_threshold_km2 ~weight_band s in
  if not (bit_identical (solve pruned) (solve plain)) then
    Alcotest.fail "fallback estimate differs from add_all";
  Alcotest.(check int) "one audit entry per constraint" (List.length constraints) (List.length audit);
  if audit <> plain_audit then Alcotest.fail "audit differs from add_all's"

(* A pruned arrangement is final, and [solve] re-checks the certificate
   with the settings it is given. *)
let test_solver_pruned_is_final () =
  let disk x r w s = Constr.positive_disk ~center:(pt x 0.0) ~radius_km:r ~weight:w ~source:s in
  let constraints = [ disk 0.0 150.0 1.0 "a"; disk 100.0 150.0 1.0 "b"; disk 700.0 100.0 0.1 "c" ] in
  let area_threshold_km2 = 10_000.0 and weight_band = 0.9 in
  let (pruned, plain), snap =
    with_counters (fun () ->
        let base = Solver.create ~world:world100 () in
        ( Solver.add_all_pruned ~area_threshold_km2 ~weight_band base constraints,
          Solver.add_all base constraints ))
  in
  if counter_value snap "solver" "cells_pruned" = 0 then Alcotest.fail "nothing was pruned";
  if Solver.cell_count pruned >= Solver.cell_count plain then
    Alcotest.fail "cell_count must see only the kept cells";
  if
    not
      (bit_identical
         (Solver.solve ~area_threshold_km2 ~weight_band pruned)
         (Solver.solve ~area_threshold_km2 ~weight_band plain))
  then Alcotest.fail "pruned estimate differs";
  (match Solver.add pruned (disk 0.0 50.0 1.0 "late") with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "add on a pruned arrangement must raise");
  match Solver.solve ~area_threshold_km2:1e9 ~weight_band pruned with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "solve must refuse settings that break the certificate"

(* ------------------------------------------------------------------ *)
(* Parallel *)
(* ------------------------------------------------------------------ *)

let test_parallel_matches_array_init () =
  let f i = float_of_int (i * i) /. 3.0 in
  let expected = Array.init 100 f in
  List.iter
    (fun jobs ->
      List.iter
        (fun chunk ->
          Alcotest.(check (array (float 0.0)))
            (Printf.sprintf "jobs=%d chunk=%d" jobs chunk)
            expected
            (Parallel.init ~jobs ~chunk 100 f))
        [ 1; 3; 64 ])
    [ 1; 2; 4 ]

let test_parallel_empty_and_validation () =
  Alcotest.(check (array int)) "n=0" [||] (Parallel.init ~jobs:4 0 (fun i -> i));
  (match Parallel.init ~jobs:0 3 Fun.id with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "jobs=0 must be rejected");
  (match Parallel.init ~chunk:0 3 Fun.id with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "chunk=0 must be rejected");
  match Parallel.init (-1) Fun.id with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "negative n must be rejected"

let test_parallel_propagates_exception () =
  match Parallel.init ~jobs:4 64 (fun i -> if i = 13 then failwith "boom" else i) with
  | exception Failure msg -> Alcotest.(check string) "message" "boom" msg
  | _ -> Alcotest.fail "worker exception must propagate"

let test_parallel_seq_init_order () =
  let order = ref [] in
  let a =
    Parallel.seq_init 20 (fun i ->
        order := i :: !order;
        i)
  in
  Alcotest.(check (list int)) "ascending application" (List.init 20 Fun.id) (List.rev !order);
  Alcotest.(check (array int)) "values" (Array.init 20 Fun.id) a

let test_parallel_default_chunk_matches () =
  (* With [?chunk] omitted the pool picks an adaptive size; the result
     must still be exactly [Array.init], at every (n, jobs) combination
     including the edge cases n < jobs and n not a chunk multiple. *)
  let f i = (i * 31) mod 97 in
  List.iter
    (fun n ->
      List.iter
        (fun jobs ->
          Alcotest.(check (array int))
            (Printf.sprintf "n=%d jobs=%d default chunk" n jobs)
            (Array.init n f)
            (Parallel.init ~jobs n f))
        [ 1; 2; 4 ])
    [ 0; 1; 7; 100 ]

let prop_parallel_matches_sequential =
  QCheck.Test.make ~name:"parallel init = sequential init" ~count:60
    QCheck.(triple (int_range 0 200) (int_range 1 8) (int_range 1 17))
    (fun (n, jobs, chunk) ->
      let f i = (i * 7919) mod 257 in
      Parallel.init ~jobs ~chunk n f = Array.init n f)

(* ------------------------------------------------------------------ *)
(* Geometry cache *)
(* ------------------------------------------------------------------ *)

let test_geom_cache_buckets_share_entries () =
  let cache = Geom_cache.create () in
  let c1 = Constr.positive_disk ~center:(pt 10.0 20.0) ~radius_km:100.02 ~weight:1.0 ~source:"a" in
  let c2 = Constr.positive_disk ~center:(pt (-5.0) 3.0) ~radius_km:100.09 ~weight:1.0 ~source:"b" in
  (* Radii within one quantum snap to the same bucket: one miss, one hit,
     congruent geometry at different centers. *)
  let r1 = Geom_cache.region_for cache c1 in
  let r2 = Geom_cache.region_for cache c2 in
  let hits, misses = Geom_cache.stats cache in
  Alcotest.(check int) "misses" 1 misses;
  Alcotest.(check int) "hits" 1 hits;
  check_float ~eps:1e-6 "congruent" (Geo.Region.area r1) (Geo.Region.area r2);
  assert (Geo.Region.contains r2 (pt (-5.0) 3.0));
  assert (not (Geo.Region.contains r2 (pt 120.0 3.0)))

let test_geom_cache_snap_is_conservative () =
  let cache = Geom_cache.create () in
  let center = pt 0.0 0.0 in
  let radius_km = 100.13 in
  let posc = Constr.positive_disk ~center ~radius_km ~weight:1.0 ~source:"p" in
  let negc = Constr.negative_disk ~center ~radius_km ~weight:1.0 ~source:"n" in
  let exact = Constr.region_of_shape posc.Constr.shape in
  (* Positive snaps outward (the satisfying inside grows), negative snaps
     inward (the satisfying outside grows): both conservative. *)
  assert (Geo.Region.area (Geom_cache.region_for cache posc) >= Geo.Region.area exact -. 1e-6);
  assert (Geo.Region.area (Geom_cache.region_for cache negc) <= Geo.Region.area exact +. 1e-6)

let test_geom_cache_state_independent () =
  (* The returned geometry is a pure function of the quantized key: a
     warmed cache and a fresh one answer bit-identically. *)
  let warm = Geom_cache.create () in
  List.iter
    (fun r ->
      ignore
        (Geom_cache.region_for warm
           (Constr.positive_disk ~center:(pt 0.0 0.0) ~radius_km:r ~weight:1.0 ~source:"w")))
    [ 50.0; 75.5; 123.4; 320.0 ];
  let fresh = Geom_cache.create () in
  let c = Constr.positive_disk ~center:(pt 7.0 (-3.0)) ~radius_km:123.4 ~weight:1.0 ~source:"c" in
  check_float ~eps:0.0 "identical area"
    (Geo.Region.area (Geom_cache.region_for warm c))
    (Geo.Region.area (Geom_cache.region_for fresh c))

(* ------------------------------------------------------------------ *)
(* Posterior *)
(* ------------------------------------------------------------------ *)

let posterior_fixture () =
  let s = Solver.create ~world:world100 () in
  let a = Constr.positive_disk ~center:(pt (-500.0) 0.0) ~radius_km:100.0 ~weight:1.0 ~source:"a" in
  let b = Constr.positive_disk ~center:(pt 500.0 0.0) ~radius_km:100.0 ~weight:0.4 ~source:"b" in
  Solver.add_all s [ a; b ]

let test_posterior_masses_normalized () =
  let p = Posterior.of_solver (posterior_fixture ()) in
  let total = List.fold_left (fun acc (_, m) -> acc +. m) 0.0 (Posterior.cells p) in
  check_float ~eps:1e-9 "masses sum to 1" 1.0 total;
  List.iter (fun (_, m) -> assert (m >= 0.0 && m <= 1.0)) (Posterior.cells p)

let test_posterior_density_ordering () =
  let p = Posterior.of_solver (posterior_fixture ()) in
  (* The heavier disk has strictly higher density than the lighter one,
     which in turn beats the background. *)
  let da = Posterior.density_at p (pt (-500.0) 0.0) in
  let db = Posterior.density_at p (pt 500.0 0.0) in
  let d0 = Posterior.density_at p (pt 0.0 500.0) in
  assert (da > db);
  assert (db > d0);
  check_float ~eps:1e-9 "top density is 1" 1.0 da;
  check_float "outside world" 0.0 (Posterior.density_at p (pt 5000.0 5000.0))

let test_posterior_credible_region_grows () =
  let p = Posterior.of_solver (posterior_fixture ()) in
  let r50 = Posterior.credible_region p ~confidence:0.5 in
  let r99 = Posterior.credible_region p ~confidence:0.99 in
  assert (Geo.Region.area r50 <= Geo.Region.area r99 +. 1e-6);
  (* 99% must include essentially the whole world mass. *)
  assert (Geo.Region.contains r99 (pt 0.0 500.0))

let test_posterior_entropy_bounds () =
  let p = Posterior.of_solver (posterior_fixture ()) in
  let h = Posterior.entropy_bits p in
  assert (h >= 0.0);
  let n = List.length (Posterior.cells p) in
  assert (h <= Float.log (float_of_int n) /. Float.log 2.0 +. 1e-9)

let test_posterior_mean_point_in_world () =
  let p = Posterior.of_solver (posterior_fixture ()) in
  let m = Posterior.mean_point p in
  assert (Float.abs m.Geo.Point.x <= 1000.0 && Float.abs m.Geo.Point.y <= 1000.0)

(* ------------------------------------------------------------------ *)
(* Geo hints *)
(* ------------------------------------------------------------------ *)

let test_geo_hints_land_mask () =
  let proj = Geo.Projection.make (Geo.Geodesy.coord ~lat:42.44 ~lon:(-76.5)) in
  match Geo_hints.land_mask proj ~within_km:2000.0 with
  | None -> Alcotest.fail "land mask should exist near Ithaca"
  | Some c ->
      assert (c.Constr.polarity = Constr.Positive);
      let r = Constr.region_of_shape c.Constr.shape in
      assert (Geo.Region.contains r (pt 0.0 0.0))

let test_geo_hints_city_hint () =
  let proj = Geo.Projection.make (Geo.Geodesy.coord ~lat:42.44 ~lon:(-76.5)) in
  let hint =
    Geo_hints.city_hint ~weight:0.3 ~radius_km:100.0 proj
      (Geo.Geodesy.coord ~lat:42.44 ~lon:(-76.5))
      ~source:"whois"
  in
  let r = Constr.region_of_shape hint.Constr.shape in
  assert (Geo.Region.contains r (pt 0.0 0.0));
  assert (not (Geo.Region.contains r (pt 300.0 0.0)))

(* ------------------------------------------------------------------ *)
(* Pipeline on a synthetic, noise-free deployment *)
(* ------------------------------------------------------------------ *)

(* A clean world where rtt = (1+beta) * sol(prop): every mechanism should
   nail the target. *)
let clean_pipeline_fixture () =
  let landmark_cities =
    [|
      (40.71, -74.01); (41.88, -87.63); (33.75, -84.39); (42.36, -71.06);
      (38.91, -77.04); (44.98, -93.27); (29.76, -95.37); (39.74, -104.99);
      (47.61, -122.33); (34.05, -118.24); (32.78, -96.8); (25.76, -80.19);
    |]
  in
  let beta = 0.25 in
  let positions = Array.map (fun (lat, lon) -> Geo.Geodesy.coord ~lat ~lon) landmark_cities in
  let landmarks =
    Array.mapi (fun i p -> { Pipeline.lm_key = i; lm_position = p }) positions
  in
  let rtt_between a b =
    (1.0 +. beta) *. Geo.Geodesy.distance_to_min_rtt_ms (Geo.Geodesy.distance_km a b) +. 2.0
  in
  let n = Array.length positions in
  let inter =
    Array.init n (fun i ->
        Array.init n (fun j -> if i = j then 0.0 else rtt_between positions.(i) positions.(j)))
  in
  (landmarks, inter, rtt_between)

let test_pipeline_localizes_clean_target () =
  let landmarks, inter, rtt_between = clean_pipeline_fixture () in
  let config =
    {
      Pipeline.default_config with
      Pipeline.use_piecewise = false;
      use_land_mask = false;
      whois_weight = 0.0;
    }
  in
  let ctx = Pipeline.prepare ~config ~landmarks ~inter_landmark_rtt_ms:inter () in
  (* Target: St. Louis. *)
  let truth = Geo.Geodesy.coord ~lat:38.63 ~lon:(-90.2) in
  let rtts = Array.map (fun l -> rtt_between l.Pipeline.lm_position truth) landmarks in
  let est = Pipeline.localize ctx (Pipeline.observations_of_rtts rtts) in
  let err = Estimate.error_miles est truth in
  if err > 150.0 then Alcotest.failf "clean localization error %.1f mi" err;
  if not (Estimate.covers est truth) then Alcotest.fail "clean region must cover truth"

let test_pipeline_whois_hint_helps () =
  let landmarks, inter, rtt_between = clean_pipeline_fixture () in
  let config =
    { Pipeline.default_config with Pipeline.use_piecewise = false; use_land_mask = false }
  in
  let ctx = Pipeline.prepare ~config ~landmarks ~inter_landmark_rtt_ms:inter () in
  let truth = Geo.Geodesy.coord ~lat:38.63 ~lon:(-90.2) in
  let rtts = Array.map (fun l -> rtt_between l.Pipeline.lm_position truth) landmarks in
  let base = Pipeline.localize ctx (Pipeline.observations_of_rtts rtts) in
  let with_hint =
    Pipeline.localize ctx
      { (Pipeline.observations_of_rtts rtts) with Pipeline.whois_hint = Some truth }
  in
  assert (Estimate.error_miles with_hint truth <= Estimate.error_miles base truth +. 5.0)

let test_pipeline_sol_only_is_sound_but_loose () =
  let landmarks, inter, rtt_between = clean_pipeline_fixture () in
  let config =
    {
      Pipeline.default_config with
      Pipeline.sol_only = true;
      use_piecewise = false;
      use_land_mask = false;
      whois_weight = 0.0;
    }
  in
  let ctx = Pipeline.prepare ~config ~landmarks ~inter_landmark_rtt_ms:inter () in
  let truth = Geo.Geodesy.coord ~lat:38.63 ~lon:(-90.2) in
  let rtts = Array.map (fun l -> rtt_between l.Pipeline.lm_position truth) landmarks in
  let est = Pipeline.localize ctx (Pipeline.observations_of_rtts rtts) in
  (* Speed-of-light constraints are sound: the region must cover truth. *)
  assert (Estimate.covers est truth);
  (* ... and bigger than the calibrated region. *)
  let cal_ctx =
    Pipeline.prepare
      ~config:{ config with Pipeline.sol_only = false }
      ~landmarks ~inter_landmark_rtt_ms:inter ()
  in
  let cal_est = Pipeline.localize cal_ctx (Pipeline.observations_of_rtts rtts) in
  assert (est.Estimate.area_km2 >= cal_est.Estimate.area_km2 -. 1.0)

let test_pipeline_piecewise_pin_overrides () =
  (* A traceroute whose last hop resolves to the true city must pull the
     estimate there. *)
  let landmarks, inter, rtt_between = clean_pipeline_fixture () in
  let config =
    { Pipeline.default_config with Pipeline.use_land_mask = false; whois_weight = 0.0 }
  in
  let ctx = Pipeline.prepare ~config ~landmarks ~inter_landmark_rtt_ms:inter () in
  let truth = Geo.Geodesy.coord ~lat:38.63 ~lon:(-90.2) in
  let rtts = Array.map (fun l -> rtt_between l.Pipeline.lm_position truth) landmarks in
  let undns name = if name = "ar1-stl-0-0.testnet.net" then Some truth else None in
  let trace =
    [|
      {
        Pipeline.hop_key = 991;
        hop_dns = Some "ar1-stl-0-0.testnet.net";
        hop_rtt_ms = rtts.(0) -. 1.0;
        hop_rtt_from_landmarks = [||];
      };
      {
        Pipeline.hop_key = 992;
        hop_dns = None;
        hop_rtt_ms = rtts.(0);
        hop_rtt_from_landmarks = [||];
      };
    |]
  in
  let obs =
    {
      Pipeline.target_rtt_ms = rtts;
      traceroutes = Array.append [| trace |] (Array.make (Array.length landmarks - 1) [||]);
      whois_hint = None;
    }
  in
  let est = Pipeline.localize ~undns ctx obs in
  let err = Estimate.error_miles est truth in
  if err > 120.0 then Alcotest.failf "piecewise pin error %.1f mi" err

let test_pipeline_serial_chain () =
  (* The last router's name does not resolve, but a PoP two hops upstream
     does: the serial chain must still anchor the target near the truth. *)
  let landmarks, inter, rtt_between = clean_pipeline_fixture () in
  let config =
    { Pipeline.default_config with Pipeline.use_land_mask = false; whois_weight = 0.0 }
  in
  let ctx = Pipeline.prepare ~config ~landmarks ~inter_landmark_rtt_ms:inter () in
  let truth = Geo.Geodesy.coord ~lat:38.63 ~lon:(-90.2) in
  let rtts = Array.map (fun l -> rtt_between l.Pipeline.lm_position truth) landmarks in
  (* A PoP 2ms upstream of the target's access router. *)
  let pop = Geo.Geodesy.coord ~lat:38.75 ~lon:(-90.4) in
  let undns name = if name = "bb1-stl-2-0.testnet.net" then Some pop else None in
  let trace =
    [|
      {
        Pipeline.hop_key = 700;
        hop_dns = Some "bb1-stl-2-0.testnet.net";
        hop_rtt_ms = rtts.(0) -. 3.0;
        hop_rtt_from_landmarks = [||];
      };
      {
        Pipeline.hop_key = 701;
        hop_dns = Some "ar9-445.testnet.net" (* opaque *);
        hop_rtt_ms = rtts.(0) -. 1.0;
        hop_rtt_from_landmarks = [||];
      };
      {
        Pipeline.hop_key = 702;
        hop_dns = None;
        hop_rtt_ms = rtts.(0);
        hop_rtt_from_landmarks = [||];
      };
    |]
  in
  let obs =
    {
      Pipeline.target_rtt_ms = rtts;
      traceroutes = Array.append [| trace |] (Array.make (Array.length landmarks - 1) [||]);
      whois_hint = None;
    }
  in
  let est = Pipeline.localize ~undns ctx obs in
  (* The chain constraint must exist and pull the region over the truth. *)
  assert (Estimate.covers est truth);
  let err = Estimate.error_miles est truth in
  if err > 200.0 then Alcotest.failf "serial chain error %.1f mi" err

let test_pipeline_input_validation () =
  let landmarks, inter, _ = clean_pipeline_fixture () in
  let ctx = Pipeline.prepare ~landmarks ~inter_landmark_rtt_ms:inter () in
  (match Pipeline.localize ctx (Pipeline.observations_of_rtts [| 1.0 |]) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "length mismatch must be rejected");
  let no_rtts = Array.make (Array.length landmarks) 0.0 in
  match Pipeline.localize ctx (Pipeline.observations_of_rtts no_rtts) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "all-missing RTTs must be rejected"

let test_estimate_bezier_output () =
  let landmarks, inter, rtt_between = clean_pipeline_fixture () in
  let ctx = Pipeline.prepare ~landmarks ~inter_landmark_rtt_ms:inter () in
  let truth = Geo.Geodesy.coord ~lat:38.63 ~lon:(-90.2) in
  let rtts = Array.map (fun l -> rtt_between l.Pipeline.lm_position truth) landmarks in
  let est = Pipeline.localize ctx (Pipeline.observations_of_rtts rtts) in
  let paths = Estimate.bezier_boundaries est in
  assert (List.length paths >= 1);
  List.iter (fun p -> assert (Geo.Bezier.is_closed p)) paths

(* [solve_time_s] is wall time: with a second domain spinning, process
   CPU time would run ahead of the wall clock around the call.  The spin
   loop is a bare atomic load: a [Domain.cpu_relax] loop did not keep a
   second core busy. *)
let test_pipeline_solve_time_is_wall () =
  let landmarks, inter, rtt_between = clean_pipeline_fixture () in
  let ctx = Pipeline.prepare ~landmarks ~inter_landmark_rtt_ms:inter () in
  let truth = Geo.Geodesy.coord ~lat:38.63 ~lon:(-90.2) in
  let obs =
    Pipeline.observations_of_rtts
      (Array.map (fun l -> rtt_between l.Pipeline.lm_position truth) landmarks)
  in
  let started = Atomic.make false and stop = Atomic.make false in
  let spinner =
    Domain.spawn (fun () ->
        Atomic.set started true;
        while not (Atomic.get stop) do
          ()
        done)
  in
  let est, wall =
    Fun.protect
      ~finally:(fun () ->
        Atomic.set stop true;
        Domain.join spinner)
      (fun () ->
        while not (Atomic.get started) do
          ()
        done;
        let t0 = Telemetry.now_s () in
        let est = Pipeline.localize ctx obs in
        (est, Telemetry.now_s () -. t0))
  in
  if est.Estimate.solve_time_s > wall then
    Alcotest.failf "solve_time_s %.4f s exceeds the wall time around localize, %.4f s"
      est.Estimate.solve_time_s wall

let test_batch_chunk_invariance () =
  (* localize_batch results must not depend on the work-queue granularity:
     the default (adaptive) chunk, chunk=1, and an uneven chunk must yield
     the same estimates, at jobs 1 and 2.  Compare the deterministic
     fields — [solve_time_s] is a stopwatch and legitimately varies. *)
  let landmarks, inter, rtt_between = clean_pipeline_fixture () in
  let ctx = Pipeline.prepare ~landmarks ~inter_landmark_rtt_ms:inter () in
  let targets =
    [|
      (38.63, -90.2); (39.1, -94.58); (35.15, -90.05); (36.16, -86.78);
      (39.77, -86.16); (38.25, -85.76); (41.5, -81.7);
    |]
  in
  let obs =
    Array.map
      (fun (lat, lon) ->
        let truth = Geo.Geodesy.coord ~lat ~lon in
        Pipeline.observations_of_rtts
          (Array.map (fun l -> rtt_between l.Pipeline.lm_position truth) landmarks))
      targets
  in
  let fingerprint results =
    Array.map
      (function
        | Ok (e : Estimate.t) ->
            Printf.sprintf "ok %.9f %.9f %.6f" e.Estimate.point.Geo.Geodesy.lat
              e.Estimate.point.Geo.Geodesy.lon e.Estimate.area_km2
        | Error reason -> "error " ^ reason)
      results
  in
  let baseline = fingerprint (Pipeline.localize_batch ~jobs:1 ~chunk:1 ctx obs) in
  List.iter
    (fun (jobs, chunk, label) ->
      Alcotest.(check (array string))
        label baseline
        (fingerprint (Pipeline.localize_batch ~jobs ?chunk ctx obs)))
    [
      (1, None, "jobs=1 default chunk");
      (2, None, "jobs=2 default chunk");
      (2, Some 1, "jobs=2 chunk=1");
      (2, Some 3, "jobs=2 chunk=3");
      (1, Some 100, "jobs=1 oversized chunk");
    ]

let tc name f = Alcotest.test_case name `Quick f

let suite =
  [
    ( "weight",
      [
        tc "exponential decay" test_weight_decay;
        tc "floor" test_weight_floor;
        tc "uniform policy" test_weight_uniform;
        tc "total over all floats" test_weight_total;
        tc "monotone non-increasing" test_weight_monotone;
      ] );
    ( "calibration",
      [
        tc "bounds envelope samples" test_calibration_bounds_envelope;
        tc "lower <= upper everywhere" test_calibration_monotone_consistency;
        tc "never beats speed of light" test_calibration_respects_speed_of_light;
        tc "conservative fallback" test_calibration_conservative;
        tc "cutoff and sentinel" test_calibration_cutoff_beyond_sentinel;
        tc "below-range clamps" test_calibration_below_range_clamps;
        tc "degenerate input rejected" test_calibration_rejects_degenerate_input;
        tc "margins widen bounds" test_calibration_margins_widen;
        tc "pooling" test_calibration_pool;
        tc "pooling forwards parameters" test_calibration_pool_threads_params;
      ] );
    ( "heights",
      [
        tc "exact recovery" test_heights_exact_recovery;
        tc "noisy recovery" test_heights_noisy_recovery;
        tc "non-negative" test_heights_nonnegative;
        tc "target height recovery" test_heights_target_recovery;
        tc "adjusted rtt floor" test_heights_adjusted_rtt_floor;
        tc "errors" test_heights_errors;
      ] );
    ( "constraints",
      [
        tc "ring shape" test_constr_ring_shape;
        tc "ring degenerates to disk" test_constr_ring_degenerates_to_disk;
        tc "classify disk" test_constr_classify_disk;
        tc "classify ring" test_constr_classify_ring;
        tc "of_rtt point landmark" test_constr_of_rtt_point_landmark;
        tc "of_rtt region landmark" test_constr_of_rtt_region_landmark;
        tc "negative discount split" test_constr_negative_discount_split;
        tc "negative weight rejected" test_constr_negative_weight_rejected;
      ] );
    ( "solver",
      [
        tc "single positive" test_solver_single_positive;
        tc "intersection of positives" test_solver_intersection_of_positives;
        tc "negative carves" test_solver_negative_carves;
        tc "tolerates one bad constraint" test_solver_tolerates_one_bad_constraint;
        tc "weighted arbitration" test_solver_weighted_arbitration;
        tc "cell cap respected" test_solver_cell_cap;
        tc "cap fusion no double count" test_solver_cap_fusion_no_double_count;
        tc "weight band inclusion" test_solver_weight_band_inclusion;
        tc "point from top tier" test_solver_point_from_top_tier;
        tc "area conservation" test_solver_area_conservation;
        tc "estimate area threshold" test_solver_estimate_area_threshold;
        tc "prune certificate fallback" test_solver_prune_fallback;
        tc "pruned arrangement is final" test_solver_pruned_is_final;
      ] );
    ( "solver-properties",
      [
        QCheck_alcotest.to_alcotest prop_solver_pointwise_weight;
        QCheck_alcotest.to_alcotest prop_solver_pruned_contract;
      ] );
    ( "parallel",
      [
        tc "matches Array.init" test_parallel_matches_array_init;
        tc "empty and validation" test_parallel_empty_and_validation;
        tc "propagates exceptions" test_parallel_propagates_exception;
        tc "seq_init applies in order" test_parallel_seq_init_order;
        tc "default chunk matches Array.init" test_parallel_default_chunk_matches;
        QCheck_alcotest.to_alcotest prop_parallel_matches_sequential;
      ] );
    ( "geom-cache",
      [
        tc "buckets share entries" test_geom_cache_buckets_share_entries;
        tc "snap is conservative" test_geom_cache_snap_is_conservative;
        tc "state independent" test_geom_cache_state_independent;
      ] );
    ( "posterior",
      [
        tc "masses normalized" test_posterior_masses_normalized;
        tc "density ordering" test_posterior_density_ordering;
        tc "credible region grows" test_posterior_credible_region_grows;
        tc "entropy bounds" test_posterior_entropy_bounds;
        tc "mean point in world" test_posterior_mean_point_in_world;
      ] );
    ( "geo-hints",
      [ tc "land mask" test_geo_hints_land_mask; tc "city hint" test_geo_hints_city_hint ] );
    ( "pipeline",
      [
        tc "clean localization" test_pipeline_localizes_clean_target;
        tc "whois hint helps" test_pipeline_whois_hint_helps;
        tc "sol-only sound but loose" test_pipeline_sol_only_is_sound_but_loose;
        tc "piecewise pin overrides" test_pipeline_piecewise_pin_overrides;
        tc "serial chain through opaque hops" test_pipeline_serial_chain;
        tc "input validation" test_pipeline_input_validation;
        tc "bezier output" test_estimate_bezier_output;
        tc "batch chunk invariance" test_batch_chunk_invariance;
        tc "solve_time_s is wall time" test_pipeline_solve_time_is_wall;
      ] );
  ]
