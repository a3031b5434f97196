(* Render one localization as an SVG: the constraint system's world, the
   estimated location region (filled), its compact Bezier boundary
   (stroked), the 90% credible region of the posterior measure, the
   landmarks, the point estimate, and the ground truth.

   Run with: dune exec examples/visualize.exe [target] [out.svg]
   then open the SVG in any browser. *)

let () =
  let target = if Array.length Sys.argv > 1 then int_of_string Sys.argv.(1) else 5 in
  let out = if Array.length Sys.argv > 2 then Sys.argv.(2) else "octant_estimate.svg" in
  let deployment = Netsim.Deployment.make ~seed:7 ~n_hosts:30 () in
  let bridge = Eval.Bridge.create deployment in
  let n = Eval.Bridge.host_count bridge in
  let all = Array.init n Fun.id in
  let truth = Eval.Bridge.position bridge target in
  let landmarks = Eval.Bridge.landmarks_for bridge ~exclude:target all in
  let lm_indices = Array.of_list (List.filter (fun i -> i <> target) (Array.to_list all)) in
  let inter = Eval.Bridge.inter_rtt_for bridge lm_indices in
  let obs = Eval.Bridge.observations bridge ~landmark_indices:all ~target in
  let ctx = Octant.Pipeline.prepare ~landmarks ~inter_landmark_rtt_ms:inter () in
  let prepared = Octant.Pipeline.prepare_target ~undns:Eval.Bridge.undns ctx obs in
  let est = Octant.Pipeline.localize ~undns:Eval.Bridge.undns ctx obs in
  (* The posterior needs the whole arrangement, not [Pipeline.arrangement]'s
     pruned one. *)
  let solver =
    Octant.Solver.add_all ~max_cells:(Octant.Pipeline.config ctx).Octant.Pipeline.max_cells
      (Octant.Solver.create ~world:prepared.Octant.Pipeline.world ())
      prepared.Octant.Pipeline.constraints
  in
  let posterior = Octant.Posterior.of_solver solver in
  let projection = prepared.Octant.Pipeline.projection in

  (* Canvas: the world region's bounding box. *)
  let lo, hi =
    match Geo.Region.bounding_box prepared.Octant.Pipeline.world with
    | Some box -> box
    | None -> (Geo.Point.make (-4000.0) (-4000.0), Geo.Point.make 4000.0 4000.0)
  in
  let svg = Geo.Svg.create ~width_px:1000 ~lo ~hi () in
  (* 90% credible region (light), estimated region (darker), Bezier rim. *)
  Geo.Svg.add_region ~fill:"#d9c78a" ~stroke:"#b09a50" ~opacity:0.25 ~label:"90% credible" svg
    (Octant.Posterior.credible_region posterior ~confidence:0.9);
  Geo.Svg.add_region ~fill:"#4682b4" ~stroke:"#1f4e79" ~opacity:0.45 ~label:"estimate" svg
    est.Octant.Estimate.region;
  Geo.Svg.add_bezier_paths svg (Octant.Estimate.bezier_boundaries est);
  (* Landmarks, point estimate, truth. *)
  Array.iter
    (fun lm ->
      Geo.Svg.add_point ~color:"#606060" ~radius_px:2.5 svg
        (Geo.Projection.project projection lm.Octant.Pipeline.lm_position))
    landmarks;
  Geo.Svg.add_point ~color:"#c03030" ~radius_px:5.0 ~label:"estimate" svg
    est.Octant.Estimate.point_plane;
  Geo.Svg.add_point ~color:"#108040" ~radius_px:5.0 ~label:"truth" svg
    (Geo.Projection.project projection truth);
  Geo.Svg.save svg out;

  let city = Netsim.Deployment.host_city deployment (Eval.Bridge.host_id bridge target) in
  Printf.printf "target: %s\n" city.Netsim.City.name;
  Printf.printf "error: %.1f mi, region %.0f sq mi, covers truth: %b\n"
    (Octant.Estimate.error_miles est truth)
    (Octant.Estimate.region_area_sq_miles est)
    (Octant.Estimate.covers est truth);
  Printf.printf "posterior: P(truth cell) = %.3f, entropy = %.2f bits\n"
    (Octant.Posterior.probability_at posterior (Geo.Projection.project projection truth))
    (Octant.Posterior.entropy_bits posterior);
  Printf.printf "wrote %s\n" out
