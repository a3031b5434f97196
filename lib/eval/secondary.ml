type row = {
  label : string;
  median_miles : float;
  p90_miles : float;
  hit_rate : float;
  median_area_sq_miles : float;
}

(* Move a region between the per-target projections: unproject every
   vertex from the source plane and reproject into the destination plane.
   Pieces that degenerate (possible only for slivers) are dropped. *)
let reproject region ~from_projection ~to_projection =
  Geo.Region.pieces region
  |> List.filter_map (fun poly ->
         match
           Geo.Polygon.transform
             (fun p ->
               Geo.Projection.project to_projection (Geo.Projection.unproject from_projection p))
             poly
         with
         | p -> Some p
         | exception Invalid_argument _ -> None)
  |> Geo.Region.of_polygons

let summarize label errors hits areas =
  let errs = Array.of_list errors in
  let sq_mile = Geo.Geodesy.km_per_mile *. Geo.Geodesy.km_per_mile in
  {
    label;
    median_miles = Stats.Sample.median errs;
    p90_miles = Stats.Sample.percentile 90.0 errs;
    hit_rate = float_of_int hits /. float_of_int (Array.length errs);
    median_area_sq_miles = Stats.Sample.median (Array.of_list areas) /. sq_mile;
  }

let run ?(config = Octant.Pipeline.default_config) ?(seed = 7) ?(n_hosts = 51) ?(n_primary = 12)
    () =
  if n_primary < 3 || n_primary >= n_hosts - 1 then
    invalid_arg "Secondary.run: need 3 <= n_primary < n_hosts - 1";
  let deployment = Netsim.Deployment.make ~seed ~n_hosts () in
  let bridge = Bridge.create deployment in
  let n = Bridge.host_count bridge in
  (* The deployment's host array is zone-ordered (NA block, then EU, then
     Asia, then the rest), so stride-sampling gives a geographically
     spread primary set — like picking the GPS-surveyed nodes of a real
     deployment. *)
  let primaries = Array.init n_primary (fun k -> k * n / n_primary) in
  let primary_set = Array.to_list primaries in
  let others =
    Array.of_list (List.filter (fun i -> not (List.mem i primary_set)) (List.init n Fun.id))
  in
  let landmarks = Bridge.landmarks_for bridge ~exclude:(-1) primaries in
  let inter = Bridge.inter_rtt_for bridge primaries in
  let ctx = Octant.Pipeline.prepare ~config ~landmarks ~inter_landmark_rtt_ms:inter () in
  (* Full pairwise RTTs among all hosts, for secondary-to-target
     measurements. *)
  let all = Array.init n Fun.id in
  let full_rtt = Bridge.inter_rtt_for bridge all in

  (* ---- Stage 1: localize every non-primary host from primaries only. *)
  let estimates =
    Array.map
      (fun o ->
        let obs = Bridge.observations bridge ~landmark_indices:primaries ~target:o in
        (o, Octant.Pipeline.localize ~undns:Bridge.undns ctx obs))
      others
  in
  let primary_errors = ref [] and primary_hits = ref 0 and primary_areas = ref [] in
  Array.iter
    (fun (o, est) ->
      let truth = Bridge.position bridge o in
      primary_errors := Octant.Estimate.error_miles est truth :: !primary_errors;
      primary_areas := est.Octant.Estimate.area_km2 :: !primary_areas;
      if Octant.Estimate.covers est truth then incr primary_hits)
    estimates;

  (* ---- Stage 2: localize each host again, adding the other localized
     hosts as region-valued secondary landmarks. *)
  let sec_errors = ref [] and sec_hits = ref 0 and sec_areas = ref [] in
  Array.iter
    (fun (target, _) ->
      let truth = Bridge.position bridge target in
      let obs = Bridge.observations bridge ~landmark_indices:primaries ~target in
      let prepared = Octant.Pipeline.prepare_target ~undns:Bridge.undns ctx obs in
      (* Constraints from the dozen closest secondaries. *)
      let candidates =
        Array.to_list estimates
        |> List.filter (fun (s, _) -> s <> target)
        |> List.filter_map (fun (s, est_s) ->
               let rtt = full_rtt.(s).(target) in
               if rtt > 0.0 then Some (rtt, s, est_s) else None)
        |> List.sort (fun (a, _, _) (b, _, _) -> compare a b)
      in
      let rec take k = function
        | [] -> []
        | _ when k = 0 -> []
        | x :: rest -> x :: take (k - 1) rest
      in
      let secondary_constraints =
        List.concat_map
          (fun (rtt, s, est_s) ->
            let adjusted =
              Octant.Heights.adjusted_rtt
                ~landmark_height_ms:est_s.Octant.Estimate.target_height_ms
                ~target_height_ms:prepared.Octant.Pipeline.target_height_ms rtt
            in
            let beta =
              reproject est_s.Octant.Estimate.region
                ~from_projection:est_s.Octant.Estimate.projection
                ~to_projection:prepared.Octant.Pipeline.projection
            in
            if Geo.Region.is_empty beta || Geo.Region.area beta > 1_500_000.0 then []
            else begin
              (* Region-valued landmarks are trusted less than pin-point
                 primaries: same discount as piecewise anchors. *)
              let weight =
                0.5
                *. Octant.Weight.of_latency
                     (Octant.Pipeline.config ctx).Octant.Pipeline.weight_policy adjusted
              in
              Octant.Constr.of_rtt
                ~calibration:(Octant.Pipeline.pooled_calibration ctx)
                ~landmark_position:(`Region beta) ~adjusted_rtt_ms:adjusted ~weight
                ~source:(Printf.sprintf "secondary H%d (%.1fms)" s adjusted)
                ()
            end)
          (take 12 candidates)
      in
      let cfg = Octant.Pipeline.config ctx in
      let all_constraints =
        List.sort
          (fun (a : Octant.Constr.t) b -> compare b.Octant.Constr.weight a.Octant.Constr.weight)
          (prepared.Octant.Pipeline.constraints @ secondary_constraints)
      in
      let solver =
        Octant.Solver.add_all ~max_cells:cfg.Octant.Pipeline.max_cells
          (Octant.Solver.create ~world:prepared.Octant.Pipeline.world ())
          all_constraints
      in
      let sol =
        Octant.Solver.solve ~area_threshold_km2:cfg.Octant.Pipeline.area_threshold_km2
          ~weight_band:cfg.Octant.Pipeline.weight_band solver
      in
      let truth_plane = Geo.Projection.project prepared.Octant.Pipeline.projection truth in
      let err =
        Geo.Geodesy.miles_of_km
          (Geo.Geodesy.distance_km
             (Geo.Projection.unproject prepared.Octant.Pipeline.projection sol.Octant.Solver.point)
             truth)
      in
      sec_errors := err :: !sec_errors;
      sec_areas := sol.Octant.Solver.area_km2 :: !sec_areas;
      if Geo.Region.contains sol.Octant.Solver.region truth_plane then incr sec_hits)
    estimates;
  [
    summarize "primaries-only" !primary_errors !primary_hits !primary_areas;
    summarize "with-secondaries" !sec_errors !sec_hits !sec_areas;
  ]
