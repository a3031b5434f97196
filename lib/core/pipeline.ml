type config = {
  segments : int;
  weight_policy : Weight.policy;
  cutoff_percentile : float;
  sentinel_ms : float;
  max_cells : int;
  area_threshold_km2 : float;
  world_margin_km : float;
  use_heights : bool;
  use_negative : bool;
  use_piecewise : bool;
  piecewise_max_routers : int;
  router_hint_radius_km : float;
  use_land_mask : bool;
  land_mask_weight : float;
  whois_weight : float;
  whois_radius_km : float;
  negative_weight_factor : float;
  weight_band : float;
  sol_only : bool;
  harden : Harden.config option;
}

let default_config =
  {
    segments = 48;
    weight_policy = Weight.default;
    cutoff_percentile = 75.0;
    sentinel_ms = 400.0;
    max_cells = 256;
    area_threshold_km2 = 30000.0;
    world_margin_km = 1500.0;
    use_heights = true;
    use_negative = true;
    use_piecewise = true;
    piecewise_max_routers = 3;
    router_hint_radius_km = 40.0;
    use_land_mask = true;
    land_mask_weight = 0.6;
    whois_weight = 0.25;
    whois_radius_km = 120.0;
    negative_weight_factor = 0.22;
    weight_band = 0.93;
    sol_only = false;
    harden = None;
  }

let c_targets = Obs.Telemetry.Counter.make ~domain:"pipeline" "targets_localized"
let c_batch_skipped = Obs.Telemetry.Counter.make ~domain:"pipeline" "batch_skipped"
let c_prepares = Obs.Telemetry.Counter.make ~domain:"pipeline" "contexts_prepared"
let c_harden_targets = Obs.Telemetry.Counter.make ~domain:"harden" "targets_scored"

let c_harden_downweighted =
  Obs.Telemetry.Counter.make ~domain:"harden" "landmarks_downweighted"

(* Wall per target on the monotonic clock; latency-valued, so never part
   of the determinism signature.  Observed in seconds. *)
let h_localize = Obs.Telemetry.Histogram.make ~unit_:"s" ~domain:"pipeline" "localize_s"

type landmark = { lm_key : int; lm_position : Geo.Geodesy.coord }

type hop = {
  hop_key : int;
  hop_dns : string option;
  hop_rtt_ms : float;
  hop_rtt_from_landmarks : (int * float) array;
}

type observations = {
  target_rtt_ms : float array;
  traceroutes : hop array array;
  whois_hint : Geo.Geodesy.coord option;
}

let observations_of_rtts rtts = { target_rtt_ms = rtts; traceroutes = [||]; whois_hint = None }

type context = {
  cfg : config;
  landmarks : landmark array;
  heights : float array;
  inflation_beta : float;
  calibrations : Calibration.t array;
  pooled_calibration : Calibration.t;
  geom_cache : Geom_cache.t;
      (* Shared across every target localized against this context,
         including concurrent localizations from the batch engine. *)
}

let prepare ?(config = default_config) ~landmarks ~inter_landmark_rtt_ms () =
  Obs.Telemetry.with_span "prepare" @@ fun () ->
  let n = Array.length landmarks in
  if n < 3 then invalid_arg "Pipeline.prepare: need at least 3 landmarks";
  if Array.length inter_landmark_rtt_ms <> n then
    invalid_arg "Pipeline.prepare: matrix size mismatch";
  Obs.Telemetry.Counter.incr c_prepares;
  let positions = Array.map (fun l -> l.lm_position) landmarks in
  let heights, inflation_beta =
    if config.use_heights && not config.sol_only then
      Obs.Telemetry.with_span "heights" (fun () ->
          let r = Heights.solve_landmarks ~positions ~rtt_ms:inter_landmark_rtt_ms in
          (r.Heights.heights_ms, r.Heights.inflation_beta))
    else (Array.make n 0.0, 0.0)
  in
  let calibrations =
    if config.sol_only then Array.make n Calibration.conservative
    else
      Obs.Telemetry.with_span "calibrate" @@ fun () ->
      Array.init n (fun i ->
          let samples = ref [] in
          for j = 0 to n - 1 do
            if j <> i then begin
              let rtt = inter_landmark_rtt_ms.(i).(j) in
              if rtt > 0.0 then begin
                let distance_km = Geo.Geodesy.distance_km positions.(i) positions.(j) in
                let adjusted =
                  Heights.adjusted_rtt ~landmark_height_ms:heights.(i)
                    ~target_height_ms:heights.(j) rtt
                in
                (* Height estimation error must not push a sample below the
                   physical propagation floor — both positions are known,
                   so the floor is known exactly. *)
                let adjusted =
                  Float.max adjusted (Geo.Geodesy.distance_to_min_rtt_ms distance_km)
                in
                samples := { Calibration.latency_ms = adjusted; distance_km } :: !samples
              end
            end
          done;
          match
            Calibration.calibrate ~cutoff_percentile:config.cutoff_percentile
              ~sentinel_ms:config.sentinel_ms !samples
          with
          | cal -> cal
          | exception Invalid_argument _ -> Calibration.conservative)
  in
  let pooled_calibration =
    if config.sol_only then Calibration.conservative
    else
      Calibration.pool ~cutoff_percentile:config.cutoff_percentile
        ~sentinel_ms:config.sentinel_ms
        (Array.to_list calibrations)
  in
  {
    cfg = config;
    landmarks;
    heights;
    inflation_beta;
    calibrations;
    pooled_calibration;
    geom_cache = Geom_cache.create ();
  }

let landmark_count ctx = Array.length ctx.landmarks

(* Heights, calibrations, and the geometry cache do not depend on the
   hardening knob, so toggling it reuses the prepared context — the
   adversarial eval driver localizes every target twice (hardened and not)
   against one prepare. *)
let with_harden ctx harden = { ctx with cfg = { ctx.cfg with harden } }
let landmark_heights ctx = ctx.heights
let calibration ctx i = ctx.calibrations.(i)
let pooled_calibration ctx = ctx.pooled_calibration
let config ctx = ctx.cfg
let geometry_cache_stats ctx = Geom_cache.stats ctx.geom_cache

(* Every solver interaction goes through the context's geometry cache, so
   the sequential and batch paths share one discretization and stay
   bit-identical. *)
let tessellate ctx = Geom_cache.region_for ctx.geom_cache

let solver_for ctx world =
  Solver.create ~config:{ Solver.default_config with Solver.harden = ctx.cfg.harden } ~world ()

(* ------------------------------------------------------------------ *)

let focus_of ctx obs =
  (* Latency-weighted mean of landmark positions: a cheap guess of where
     the action is, used only to center the projection. *)
  let wsum = ref 0.0 and lat = ref 0.0 and lon = ref 0.0 in
  Array.iteri
    (fun i l ->
      let rtt = obs.target_rtt_ms.(i) in
      if rtt > 0.0 then begin
        let w = 1.0 /. ((rtt *. rtt) +. 25.0) in
        wsum := !wsum +. w;
        lat := !lat +. (w *. l.lm_position.Geo.Geodesy.lat);
        lon := !lon +. (w *. l.lm_position.Geo.Geodesy.lon)
      end)
    ctx.landmarks;
  if !wsum = 0.0 then invalid_arg "Pipeline.localize: no usable target RTTs";
  Geo.Geodesy.coord ~lat:(!lat /. !wsum) ~lon:(!lon /. !wsum)

let world_region ctx projection =
  (* Bounding box of landmark positions, expanded by the configured
     margin, as the universe cell of the arrangement. *)
  let pts = Array.map (fun l -> Geo.Projection.project projection l.lm_position) ctx.landmarks in
  let lo_x = ref infinity and lo_y = ref infinity in
  let hi_x = ref neg_infinity and hi_y = ref neg_infinity in
  Array.iter
    (fun p ->
      if p.Geo.Point.x < !lo_x then lo_x := p.Geo.Point.x;
      if p.Geo.Point.y < !lo_y then lo_y := p.Geo.Point.y;
      if p.Geo.Point.x > !hi_x then hi_x := p.Geo.Point.x;
      if p.Geo.Point.y > !hi_y then hi_y := p.Geo.Point.y)
    pts;
  let m = ctx.cfg.world_margin_km in
  Geo.Region.of_polygon
    (Geo.Polygon.rectangle
       (Geo.Point.make (!lo_x -. m) (!lo_y -. m))
       (Geo.Point.make (!hi_x +. m) (!hi_y +. m)))

let adjusted_rtt_of ctx i rtt target_height =
  let cfg = ctx.cfg in
  if cfg.use_heights && not cfg.sol_only then
    Heights.adjusted_rtt ~landmark_height_ms:ctx.heights.(i) ~target_height_ms:target_height rtt
  else rtt

(* Latency constraint for one landmark.  [weight_scale] is the hardening
   attenuation factor (1.0 when hardening is off or the landmark is
   consistent). *)
let rtt_constraints ?(weight_scale = 1.0) ctx projection i rtt target_height =
  let cfg = ctx.cfg in
  let adjusted = adjusted_rtt_of ctx i rtt target_height in
  let weight = weight_scale *. Weight.of_latency cfg.weight_policy adjusted in
  let center = Geo.Projection.project projection ctx.landmarks.(i).lm_position in
  let cal = ctx.calibrations.(i) in
  let source = Printf.sprintf "rtt L%d (%.1fms)" ctx.landmarks.(i).lm_key adjusted in
  if cfg.use_negative && not cfg.sol_only then
    Constr.of_rtt ~segments:cfg.segments ~negative_weight_factor:cfg.negative_weight_factor
      ~calibration:cal ~landmark_position:(`Point center) ~adjusted_rtt_ms:adjusted ~weight
      ~source ()
  else
    [
      Constr.positive_disk ~center ~radius_km:(Calibration.upper_km cal adjusted) ~weight ~source;
    ]

(* ---- Piecewise localization of routers on the path (§2.3) ---- *)

(* Localize an anonymous router purely from landmark RTTs, with a small,
   cheap solver run (no piecewise recursion, no geography); returns its
   estimated region. *)
let localize_router ctx projection world rtts target_height =
  let cfg = ctx.cfg in
  let solver = ref (solver_for ctx world) in
  let count = ref 0 in
  (* The lowest-latency landmarks dominate the solution; a dozen of them
     buy almost all the precision at a fraction of the clipping cost. *)
  let usable =
    Array.to_list rtts
    |> List.filter (fun (i, rtt) -> rtt > 0.0 && i >= 0 && i < Array.length ctx.landmarks)
    |> List.sort (fun (_, a) (_, b) -> compare a b)
  in
  let rec take k = function
    | [] -> []
    | _ when k = 0 -> []
    | x :: rest -> x :: take (k - 1) rest
  in
  List.iter
    (fun (i, rtt) ->
      let constraints = rtt_constraints ctx projection i rtt target_height in
      List.iter
        (fun c -> solver := Solver.add ~max_cells:48 ~tessellate:(tessellate ctx) !solver c)
        constraints;
      incr count)
    (take 8 usable);
  if !count < 3 then None
  else
    let est = Solver.solve ~area_threshold_km2:cfg.area_threshold_km2 !solver in
    Some est.Solver.region

(* Piecewise localization (paper section 2.3), serial form.

   For each traceroute we find the LAST hop whose DNS name undns can
   decode -- typically a backbone PoP a few hops upstream of the target --
   and walk the remaining hops towards the target, dilating the position
   region by the calibrated bound of each per-link latency delta:

     region_{k+1} = dilate(region_k, R_pooled(rtt_{k+1} - rtt_k))

   Single links are "largely void of indirect routing" (the paper's
   observation), so each step is tight, and the final router region --
   the target's first-hop neighbourhood -- becomes a secondary landmark
   with the small residual latency to the target.  When no hop on a path
   resolves, the last router is instead localized from landmark RTTs with
   a bounded mini solver run. *)

type pw_chain = {
  pw_lm : int;                  (* landmark index of the trace *)
  pw_last_key : int;            (* identity of the final router *)
  pw_anchor : [ `Undns of Geo.Geodesy.coord * int | `Latency of (int * float) array ];
      (* resolved coordinate + index of the resolved hop, or RTT vector *)
  pw_steps : float array;       (* per-link deltas from the anchor to the last router *)
  pw_final_delta : float;       (* residual latency last router -> target *)
  pw_total_delta : float;       (* anchor -> target latency span, for weighting *)
}

let chain_of_trace undns target_rtt trace =
  let n = Array.length trace in
  if n < 2 || target_rtt <= 0.0 then None
  else begin
    let last = n - 2 in
    (* The residual to the target must come from the same traceroute
       session as the hop RTT: mixing it with the separately-probed RTT
       matrix makes the difference of two minima, which is frequently
       negative on long noisy paths. *)
    let final_delta =
      Float.max 0.1 (trace.(n - 1).hop_rtt_ms -. trace.(last).hop_rtt_ms)
    in
    if final_delta > 40.0 then None
    else begin
      (* Latest decodable hop. *)
      let rec find_anchor k =
        if k < 0 then None
        else
          match Option.bind trace.(k).hop_dns undns with
          | Some coord -> Some (coord, k)
          | None -> find_anchor (k - 1)
      in
      match find_anchor last with
      | Some (coord, k0) when last - k0 <= 3 ->
          (* Serial dilation from the resolved hop to the last router. *)
          let steps =
            Array.init (last - k0) (fun i ->
                let a = trace.(k0 + i).hop_rtt_ms and b = trace.(k0 + i + 1).hop_rtt_ms in
                Float.max 0.05 (b -. a))
          in
          let total =
            Array.fold_left ( +. ) final_delta steps
          in
          if total > 45.0 then None
          else
            Some
              {
                pw_lm = 0;
                pw_last_key = trace.(last).hop_key;
                pw_anchor = `Undns (coord, k0);
                pw_steps = steps;
                pw_final_delta = final_delta;
                pw_total_delta = total;
              }
      | _ ->
          if Array.length trace.(last).hop_rtt_from_landmarks >= 3 then
            Some
              {
                pw_lm = 0;
                pw_last_key = trace.(last).hop_key;
                pw_anchor = `Latency trace.(last).hop_rtt_from_landmarks;
                pw_steps = [||];
                pw_final_delta = final_delta;
                pw_total_delta = final_delta;
              }
          else None
    end
  end

let piecewise_constraints ctx projection world undns obs target_height =
  let cfg = ctx.cfg in
  if not cfg.use_piecewise then []
  else begin
    let candidates = ref [] in
    Array.iteri
      (fun lm_index trace ->
        match chain_of_trace undns obs.target_rtt_ms.(lm_index) trace with
        | Some chain -> candidates := { chain with pw_lm = lm_index } :: !candidates
        | None -> ())
      obs.traceroutes;
    (* Tightest chains first; each distinct final router is used once and
       anonymous-router localizations are budgeted. *)
    let sorted =
      List.sort (fun a b -> compare a.pw_total_delta b.pw_total_delta) !candidates
    in
    let budget = ref cfg.piecewise_max_routers in
    (* Region cache per router identity: many traces converge on the same
       final router, but each trace still contributes its own constraint —
       each is an independent measurement, exactly like several landmarks
       sharing a city would. *)
    let region_cache : (int, Geo.Region.t option) Hashtbl.t = Hashtbl.create 16 in
    let constraints = ref [] in
    let used = ref 0 in
    let max_candidates = 12 in
    List.iter
      (fun chain ->
        if !used < max_candidates then begin
          let anchor_region =
            match chain.pw_anchor with
            | `Undns (coord, _) ->
                Some
                  (Geo.Region.disk ~segments:24
                     ~center:(Geo.Projection.project projection coord)
                     ~radius:cfg.router_hint_radius_km ())
            | `Latency rtts -> (
                match Hashtbl.find_opt region_cache chain.pw_last_key with
                | Some cached -> cached
                | None ->
                    let computed =
                      if !budget > 0 then begin
                        decr budget;
                        match localize_router ctx projection world rtts 0.0 with
                        (* A sprawling latency-localized router region
                           carries no information and a wrong one is
                           poison: only keep confident anchors. *)
                        | Some r when Geo.Region.area r <= 250_000.0 -> Some r
                        | _ -> None
                      end
                      else None
                    in
                    Hashtbl.replace region_cache chain.pw_last_key computed;
                    computed)
          in
          (* Walk the chain: dilate by each link bound. *)
          let final_region =
            Option.map
              (fun region ->
                Array.fold_left
                  (fun region step ->
                    (* Single links are largely void of indirect routing
                       (paper section 2.3): the physical bound plus a
                       last-mile allowance beats the end-to-end pooled
                       hull by a wide margin. *)
                    let bound =
                      Float.min
                        (Calibration.upper_km ctx.pooled_calibration step)
                        (Geo.Geodesy.rtt_to_max_distance_km step +. 60.0)
                    in
                    Geo.Region.dilate region bound)
                  region chain.pw_steps)
              anchor_region
          in
          match final_region with
          | Some region when Geo.Region.area region <= 8_000_000.0 ->
              incr used;
              let delta_adj = Float.max 0.1 (chain.pw_final_delta -. target_height) in
              (* The residual from the last router to the target is a
                 single link — "largely void of indirect routing" — so the
                 physical bound with a last-mile allowance is tighter than
                 the end-to-end pooled hull and still sound. *)
              let bound =
                Float.min
                  (Calibration.upper_km ctx.pooled_calibration delta_adj)
                  (Geo.Geodesy.rtt_to_max_distance_km delta_adj +. 80.0)
              in
              let weight = 0.8 *. Weight.of_latency cfg.weight_policy chain.pw_total_delta in
              let source =
                Printf.sprintf "piecewise L%d chain%d (%.1fms)" chain.pw_lm
                  (Array.length chain.pw_steps) delta_adj
              in
              let c =
                Constr.positive_region
                  (Geo.Region.dilate region bound)
                  ~weight
                  ~source:(source ^ " (dilated)")
              in
              constraints := c :: !constraints
          | _ -> ()
        end)
      sorted;
    !constraints
  end

(* ------------------------------------------------------------------ *)

type prepared_target = {
  projection : Geo.Projection.t;
  world : Geo.Region.t;
  constraints : Constr.t list;
  target_height_ms : float;
}

(* Assembly plus the per-landmark hardening scales it applied ([None] when
   hardening is off), which a streaming session pins for its deltas. *)
let prepare_target_full ?(undns = fun _ -> None) ctx obs =
  Obs.Telemetry.with_span "prepare_target" @@ fun () ->
  let cfg = ctx.cfg in
  let n = Array.length ctx.landmarks in
  if Array.length obs.target_rtt_ms <> n then
    invalid_arg "Pipeline.localize: target RTT vector length mismatch";
  let usable = Array.fold_left (fun acc rtt -> if rtt > 0.0 then acc + 1 else acc) 0 obs.target_rtt_ms in
  if usable < 3 then invalid_arg "Pipeline.localize: need at least 3 target RTTs";
  let focus = focus_of ctx obs in
  let projection = Geo.Projection.make focus in
  let world = world_region ctx projection in
  (* Target height (§2.2). *)
  let target_height =
    if cfg.use_heights && not cfg.sol_only then
      Obs.Telemetry.with_span "target_height" @@ fun () ->
      begin
      let measured = ref [] in
      Array.iteri
        (fun i rtt -> if rtt > 0.0 then measured := (i, rtt) :: !measured)
        obs.target_rtt_ms;
      let pairs = Array.of_list (List.rev !measured) in
      let positions = Array.map (fun (i, _) -> ctx.landmarks.(i).lm_position) pairs in
      let lheights = Array.map (fun (i, _) -> ctx.heights.(i)) pairs in
      let trtts = Array.map snd pairs in
      let fitted =
        (Heights.solve_target ~inflation_beta:ctx.inflation_beta ~positions
           ~landmark_heights_ms:lheights ~rtt_to_target_ms:trtts ())
          .Heights.height_ms
      in
      (* The nonlinear fit can absorb systematic route inflation into the
         height, which would shrink every adjusted RTT towards zero and
         collapse the constraint disks.  Physically the target height can
         never exceed the residual RTT of the closest landmark; cap well
         below that. *)
      let cap =
        Array.fold_left
          (fun acc (i, rtt) -> Float.min acc (Float.max 0.0 (rtt -. ctx.heights.(i))))
          infinity pairs
      in
      (* Queuing floors are milliseconds, not tens of milliseconds; a
         large fitted height means the fit absorbed asymmetric routing
         detours, which must stay in the latency where the calibration
         can see them. *)
      Float.min (Float.min fitted (0.5 *. cap)) 10.0
      end
    else 0.0
  in
  (* Hardened consistency scoring (§6d): every measured landmark's
     calibrated annulus is checked against the others and against the
     median-of-means consensus point; repeat offenders reach the solver at
     a fraction of their nominal weight.  A pure function of the
     observation vector, so batch fan-out stays bit-identical. *)
  let weight_scales =
    match cfg.harden with
    | None -> None
    | Some h ->
        Obs.Telemetry.with_span "harden_scores" @@ fun () ->
        let measured = ref [] in
        Array.iteri
          (fun i rtt -> if rtt > 0.0 then measured := i :: !measured)
          obs.target_rtt_ms;
        let idx = Array.of_list (List.rev !measured) in
        let centers =
          Array.map
            (fun i -> Geo.Projection.project projection ctx.landmarks.(i).lm_position)
            idx
        in
        let adjusted =
          Array.map (fun i -> adjusted_rtt_of ctx i obs.target_rtt_ms.(i) target_height) idx
        in
        let upper =
          Array.mapi (fun k i -> Calibration.upper_km ctx.calibrations.(i) adjusted.(k)) idx
        in
        let lower =
          Array.mapi (fun k i -> Calibration.lower_km ctx.calibrations.(i) adjusted.(k)) idx
        in
        let scores = Harden.scores h ~centers ~rtt_ms:adjusted ~upper_km:upper ~lower_km:lower in
        let scales = Array.make n 1.0 in
        let down = ref 0 in
        Array.iteri
          (fun k i ->
            scales.(i) <- scores.(k).Harden.factor;
            if scores.(k).Harden.factor < 1.0 then incr down)
          idx;
        Obs.Telemetry.Counter.incr c_harden_targets;
        Obs.Telemetry.Counter.add c_harden_downweighted !down;
        Some scales
  in
  (* Assemble constraints, heaviest first so cap-fusion hits light cells.
     Each assembly stage runs under its own span, so [--telemetry] shows
     where per-target time goes (this replaced an ad-hoc OCTANT_TIMING
     stderr stopwatch). *)
  let latency_groups =
    Obs.Telemetry.with_span "latency_constraints" @@ fun () ->
    Array.mapi
      (fun i rtt ->
        if rtt > 0.0 then
          let weight_scale =
            match weight_scales with None -> 1.0 | Some s -> s.(i)
          in
          rtt_constraints ~weight_scale ctx projection i rtt target_height
        else [])
      obs.target_rtt_ms
  in
  let latency_constraints = List.concat (Array.to_list latency_groups) in
  let piecewise =
    Obs.Telemetry.with_span "piecewise" @@ fun () ->
    piecewise_constraints ctx projection world undns obs target_height
  in
  let geo_constraints =
    Obs.Telemetry.with_span "geo_constraints" @@ fun () ->
    let land_cs =
      if cfg.use_land_mask then begin
        let within_km = cfg.world_margin_km +. 4000.0 in
        let ocean =
          match Geo_hints.land_mask ~weight:cfg.land_mask_weight projection ~within_km with
          | Some c -> [ c ]
          | None -> []
        in
        let deserts =
          match Geo_hints.uninhabited_mask projection ~within_km with
          | Some c -> [ c ]
          | None -> []
        in
        ocean @ deserts
      end
      else []
    in
    let whois =
      match obs.whois_hint with
      | Some coord when cfg.whois_weight > 0.0 ->
          [
            Geo_hints.city_hint ~weight:cfg.whois_weight ~radius_km:cfg.whois_radius_km projection
              coord ~source:"whois";
          ]
      | _ -> []
    in
    land_cs @ whois
  in
  let all_constraints =
    List.sort
      (fun (a : Constr.t) (b : Constr.t) -> compare b.Constr.weight a.Constr.weight)
      (latency_constraints @ piecewise @ geo_constraints)
  in
  ( { projection; world; constraints = all_constraints; target_height_ms = target_height },
    weight_scales )

let prepare_target ?undns ctx obs = fst (prepare_target_full ?undns ctx obs)

let arrangement ?undns ctx obs =
  let prepared = prepare_target ?undns ctx obs in
  let solver =
    Obs.Telemetry.with_span "add_constraints" @@ fun () ->
    Solver.add_all_pruned ~max_cells:ctx.cfg.max_cells ~tessellate:(tessellate ctx)
      ~area_threshold_km2:ctx.cfg.area_threshold_km2 ~weight_band:ctx.cfg.weight_band
      (solver_for ctx prepared.world)
      prepared.constraints
  in
  (prepared, solver)

let localize ?undns ctx obs =
  Obs.Telemetry.with_span "localize" @@ fun () ->
  let t_start = Obs.Telemetry.now_s () in
  let prepared, solver = arrangement ?undns ctx obs in
  let sol =
    Solver.solve ~area_threshold_km2:ctx.cfg.area_threshold_km2 ~weight_band:ctx.cfg.weight_band
      solver
  in
  let elapsed = Obs.Telemetry.now_s () -. t_start in
  Obs.Telemetry.Counter.incr c_targets;
  Obs.Telemetry.Histogram.observe h_localize elapsed;
  {
    Estimate.projection = prepared.projection;
    region = sol.Solver.region;
    point = Geo.Projection.unproject prepared.projection sol.Solver.point;
    point_plane = sol.Solver.point;
    area_km2 = sol.Solver.area_km2;
    top_weight = sol.Solver.weight;
    cells_used = sol.Solver.cells_used;
    constraints_used = List.length prepared.constraints;
    target_height_ms = prepared.target_height_ms;
    solve_time_s = elapsed;
  }

let localize_audited ?undns ctx obs = Obs.Telemetry.Audit.collect (fun () -> localize ?undns ctx obs)

let localize_one ?undns ctx obs =
  (* Targets with malformed observations (wrong vector length, fewer than
     three usable RTTs) used to raise out of the batch and kill every
     other target's work.  Report them per slot instead; anything other
     than [Invalid_argument] is still a bug and propagates. *)
  match localize ?undns ctx obs with
  | est -> Ok est
  | exception Invalid_argument reason ->
      Obs.Telemetry.Counter.incr c_batch_skipped;
      Error reason

(* ---- Streaming re-localization: persistent per-target sessions ---- *)

let c_sessions_opened = Obs.Telemetry.Counter.make ~domain:"session" "opened"

module Session = struct
  type delta = { d_rtts : (int * float) array; d_epoch : int }

  (* The projection, world, target height, and hardening scales are all
     functions of the {e whole} base observation vector, so they are pinned
     at creation: a delta folds new annuli into the existing plane rather
     than re-deriving the plane (re-deriving would silently re-shape every
     prior constraint and void the parity rail).  A caller that wants the
     plane re-centred sends a fresh full observation vector, which opens a
     new session. *)
  type t = {
    s_ctx : context;
    s_projection : Geo.Projection.t;
    s_world : Geo.Region.t;
    s_target_height_ms : float;
    s_weight_scales : float array option;
    s_solver : Solver.Session.t;
    mutable s_last_epoch : int;
  }

  let knobs ctx =
    (ctx.cfg.max_cells, tessellate ctx, ctx.cfg.area_threshold_km2, ctx.cfg.weight_band)

  (* Constraints for one delta entry, built through the pinned plane and
     hardening scale.  Landmarks unmeasured at creation carry scale 1.0 —
     re-scoring the coalition against a feed is future work (documented in
     DESIGN §6f); correctness never depends on it, only attack resistance
     of the streamed path. *)
  let delta_constraints s (i, rtt) ~epoch =
    let n = Array.length s.s_ctx.landmarks in
    if i < 0 || i >= n then
      invalid_arg (Printf.sprintf "Pipeline.Session.fold: landmark index %d out of range" i);
    if rtt <= 0.0 then invalid_arg "Pipeline.Session.fold: delta RTT must be positive";
    let weight_scale = match s.s_weight_scales with None -> 1.0 | Some sc -> sc.(i) in
    List.map
      (Constr.with_epoch epoch)
      (rtt_constraints ~weight_scale s.s_ctx s.s_projection i rtt s.s_target_height_ms)

  let estimate_of s (sol : Solver.estimate) ~elapsed =
    {
      Estimate.projection = s.s_projection;
      region = sol.Solver.region;
      point = Geo.Projection.unproject s.s_projection sol.Solver.point;
      point_plane = sol.Solver.point;
      area_km2 = sol.Solver.area_km2;
      top_weight = sol.Solver.weight;
      cells_used = sol.Solver.cells_used;
      constraints_used = Solver.Session.live_constraints s.s_solver;
      target_height_ms = s.s_target_height_ms;
      solve_time_s = elapsed;
    }

  (* Creation mirrors [localize] — the same assembly folded into the same
     fresh arrangement, unpruned because later deltas are unknown — so the
     session's first estimate is bit-identical to the one-shot path
     whenever [Solver.add_all_pruned]'s contract applies.  The assembled
     constraints are the session's initial log, not a fold, so [folds]
     counts streamed deltas only. *)
  let create ?undns ?(epoch = 0) ctx obs =
    Obs.Telemetry.with_span "session.create" @@ fun () ->
    let t_start = Obs.Telemetry.now_s () in
    let prepared, weight_scales = prepare_target_full ?undns ctx obs in
    let max_cells, tess, area_threshold_km2, weight_band = knobs ctx in
    let solver_session =
      Solver.Session.create ~max_cells ~tessellate:tess ~area_threshold_km2 ~weight_band
        ~log:(List.map (Constr.with_epoch epoch) prepared.constraints)
        (solver_for ctx prepared.world)
    in
    Obs.Telemetry.Counter.incr c_sessions_opened;
    let s =
      {
        s_ctx = ctx;
        s_projection = prepared.projection;
        s_world = prepared.world;
        s_target_height_ms = prepared.target_height_ms;
        s_weight_scales = weight_scales;
        s_solver = solver_session;
        s_last_epoch = epoch;
      }
    in
    let sol = Solver.Session.estimate solver_session in
    (s, estimate_of s sol ~elapsed:(Obs.Telemetry.now_s () -. t_start))

  let fold s { d_rtts; d_epoch } =
    let t_start = Obs.Telemetry.now_s () in
    let cs =
      List.concat_map
        (fun entry -> delta_constraints s entry ~epoch:d_epoch)
        (Array.to_list d_rtts)
    in
    (* Heaviest first within the delta, matching assembly order idiom so
       cap fusion keeps hitting light cells. *)
    let cs =
      List.stable_sort
        (fun (a : Constr.t) (b : Constr.t) -> compare b.Constr.weight a.Constr.weight)
        cs
    in
    if d_epoch > s.s_last_epoch then s.s_last_epoch <- d_epoch;
    let sol = Solver.Session.fold s.s_solver cs in
    estimate_of s sol ~elapsed:(Obs.Telemetry.now_s () -. t_start)

  let retire s ~upto_epoch =
    let t_start = Obs.Telemetry.now_s () in
    let sol = Solver.Session.retire s.s_solver ~upto_epoch in
    estimate_of s sol ~elapsed:(Obs.Telemetry.now_s () -. t_start)

  let estimate s =
    let t_start = Obs.Telemetry.now_s () in
    let sol = Solver.Session.estimate s.s_solver in
    estimate_of s sol ~elapsed:(Obs.Telemetry.now_s () -. t_start)

  (* The parity comparator: a from-scratch batch recompute over exactly
     the constraints the session holds, through a fresh arrangement with
     the same pinned knobs.  Incremental folding performs literally the
     same [Solver.add] sequence, so the two estimates are bit-identical
     at every feed prefix — the safety rail every streaming test and the
     bench gate lean on. *)
  let replay_estimate s =
    let t_start = Obs.Telemetry.now_s () in
    let max_cells, tess, area_threshold_km2, weight_band = knobs s.s_ctx in
    let fresh =
      Solver.add_all ~max_cells ~tessellate:tess
        (solver_for s.s_ctx s.s_world)
        (Solver.Session.log s.s_solver)
    in
    let sol = Solver.solve ~area_threshold_km2 ~weight_band fresh in
    estimate_of s sol ~elapsed:(Obs.Telemetry.now_s () -. t_start)

  let live_constraints s = Solver.Session.live_constraints s.s_solver
  let folds s = Solver.Session.folds s.s_solver
  let retires s = Solver.Session.retires s.s_solver
  let cells_live s = Solver.Session.cells_live s.s_solver
  let last_epoch s = s.s_last_epoch
  let constraint_log s = Solver.Session.log s.s_solver
end

let localize_batch ?undns ?jobs ?chunk ctx observations =
  (* The context is immutable after [prepare] (the geometry cache mutates
     internally but never changes observable results), and [localize] is a
     pure function of (ctx, obs) apart from its [solve_time_s] stopwatch.
     Results therefore land in input order and match the sequential path
     bit for bit at any [jobs] setting.

     Telemetry note: no span may be opened here.  Worker domains start
     with an empty span stack, while with [jobs = 1] the items run on the
     calling domain — a span opened around the fan-out would nest the
     per-target spans under it on one path but not the other and break
     the cross-jobs determinism signature. *)
  Parallel.init ?jobs ?chunk (Array.length observations) (fun i ->
      localize_one ?undns ctx observations.(i))
