(* Exact-region oracle parity and solver-config regression suites.

   The parity property drives long random boolean chains (inter/diff/union
   of disks, annuli, and rectangles, all clipped to a fixed world box)
   through {!Region} and through the Grid_region raster oracle.  The
   oracle must agree with the exact chain on area within a tolerance
   derived from its lattice pitch, and on membership at every sample
   point that sits safely away from all input boundaries — the only place
   a raster is allowed to disagree.

   The config tests pin Solver.default_config to the historical constants
   (threshold 140 vertices, tolerance 2 km) and check the threshold
   actually gates simplification: solving with simplification disabled
   must retain strictly more boundary vertices while barely moving the
   answer. *)

open Geo

let pt = Point.make

(* ------------------------------------------------------------------ *)
(* Chain generation *)
(* ------------------------------------------------------------------ *)

let world_lo = pt (-400.0) (-400.0)
let world_hi = pt 400.0 400.0
let world () = Region.of_polygon (Polygon.rectangle world_lo world_hi)

(* Shapes are clipped to the world box: the raster oracle covers only the
   world, so mass outside it would diverge by construction, not by bug. *)
let rand_shape rng =
  let cx = Stats.Rng.uniform rng (-320.0) 320.0 in
  let cy = Stats.Rng.uniform rng (-320.0) 320.0 in
  let shape =
    match Stats.Rng.int rng 3 with
    | 0 -> Region.disk ~center:(pt cx cy) ~radius:(Stats.Rng.uniform rng 60.0 240.0) ()
    | 1 ->
        let r_outer = Stats.Rng.uniform rng 90.0 260.0 in
        let r_inner = Stats.Rng.uniform rng 25.0 (0.7 *. r_outer) in
        Region.annulus ~center:(pt cx cy) ~r_inner ~r_outer ()
    | _ ->
        let w = Stats.Rng.uniform rng 60.0 220.0 in
        let h = Stats.Rng.uniform rng 60.0 220.0 in
        Region.of_polygon (Polygon.rectangle (pt (cx -. w) (cy -. h)) (pt (cx +. w) (cy +. h)))
  in
  Region.inter (world ()) shape

type op = Inter | Diff | Union

let rand_ops rng =
  let n = 4 + Stats.Rng.int rng 4 in
  List.init n (fun _ ->
      let op =
        match Stats.Rng.int rng 10 with 0 | 1 | 2 -> Inter | 3 | 4 | 5 | 6 -> Diff | _ -> Union
      in
      (op, rand_shape rng))

(* The slice of {!Region} a chain needs, which the raster oracle also
   provides. *)
module type CHAIN = sig
  type t

  val of_region : Region.t -> t
  val inter : t -> t -> t
  val diff : t -> t -> t
  val union : t -> t -> t
  val area : t -> float
  val contains : t -> Point.t -> bool
end

let grid_resolution = 64

module Exact_chain = struct
  include Region

  let of_region r = r
end

(* The raster oracle at [grid_resolution]² cells over the world's box. *)
let grid_oracle world : (module CHAIN) =
  let lo, hi = Option.get (Region.bounding_box world) in
  (module struct
    include Grid_region

    let of_region = Grid_region.of_region ~lo ~hi ~resolution:grid_resolution
  end)

(* Run the chain through either representation, abstractly.  Returns the
   final area plus membership at each probe point. *)
let run_chain (module B : CHAIN) ops probes =
  let final =
    List.fold_left
      (fun acc (op, shape) ->
        let s = B.of_region shape in
        match op with Inter -> B.inter acc s | Diff -> B.diff acc s | Union -> B.union acc s)
      (B.of_region (world ()))
      ops
  in
  (B.area final, Array.map (fun p -> B.contains final p) probes)

(* Minimum distance from [p] to any input boundary (all chain shapes plus
   the world box).  Raster membership is sampled at cell centers, so
   disagreement with exact is only legal within a lattice pitch of some
   input boundary: every intermediate and final boundary segment descends
   from one. *)
let boundary_distance shapes p =
  List.fold_left
    (fun acc region ->
      List.fold_left
        (fun acc poly -> Float.min acc (Polygon.nearest_boundary_distance poly p))
        acc (Region.pieces region))
    infinity shapes

let total_perimeter shapes =
  List.fold_left
    (fun acc region ->
      List.fold_left (fun acc poly -> acc +. Polygon.perimeter poly) acc (Region.pieces region))
    0.0 shapes

let arb_seed = QCheck.make ~print:string_of_int QCheck.Gen.(0 -- 1_000_000)

let prop_chain_parity =
  QCheck.Test.make ~count:12 ~name:"grid oracle chains track exact regions" arb_seed
    (fun seed ->
      let rng = Stats.Rng.create (0x0c7a + seed) in
      let ops = rand_ops rng in
      let probes =
        Array.init 48 (fun _ ->
            pt (Stats.Rng.uniform rng (-395.0) 395.0) (Stats.Rng.uniform rng (-395.0) 395.0))
      in
      let w = world () in
      let exact_area, exact_in = run_chain (module Exact_chain) ops probes in
      let grid_area, grid_in = run_chain (grid_oracle w) ops probes in
      let span = world_hi.Point.x -. world_lo.Point.x in
      let grid_cell = span /. float_of_int grid_resolution in
      let shapes = w :: List.map snd ops in
      let perim = total_perimeter shapes in
      (* Raster error is at most the band of cells straddling some input
         boundary. *)
      let grid_tol = (0.05 *. Float.max exact_area 1000.0) +. (2.5 *. perim *. grid_cell) in
      if Float.abs (grid_area -. exact_area) > grid_tol then
        QCheck.Test.fail_reportf "seed %d: grid area %.1f vs exact %.1f (tol %.1f)" seed grid_area
          exact_area grid_tol;
      let margin = 2.0 *. sqrt 2.0 *. grid_cell in
      Array.iteri
        (fun i p ->
          if boundary_distance shapes p >= margin && grid_in.(i) <> exact_in.(i) then
            QCheck.Test.fail_reportf
              "seed %d: grid membership at (%.1f, %.1f) is %b, exact says %b" seed p.Point.x
              p.Point.y grid_in.(i) exact_in.(i))
        probes;
      true)

(* ------------------------------------------------------------------ *)
(* Solver configuration *)
(* ------------------------------------------------------------------ *)

(* Overlapping annuli in a square world: their mutual clips build cells
   whose boundaries exceed the 140-vertex simplify threshold. *)
let solver_world () = Region.of_polygon (Polygon.rectangle (pt (-600.0) (-600.0)) (pt 600.0 600.0))

let ring_constraints () =
  List.init 8 (fun k ->
      let a = 0.8 *. float_of_int k in
      Octant.Constr.ring
        ~center:(pt (60.0 *. cos a) (60.0 *. sin a))
        ~r_inner_km:(50.0 +. (6.0 *. float_of_int k))
        ~r_outer_km:(210.0 +. (9.0 *. float_of_int k))
        ~weight:1.0
        ~source:(Printf.sprintf "ring %d" k))

let solve_with ?config () =
  let s = Octant.Solver.create ?config ~world:(solver_world ()) () in
  let s = Octant.Solver.add_all s (ring_constraints ()) in
  (Octant.Solver.solve s, s)

let total_vertices s =
  List.fold_left
    (fun acc (region, _) ->
      List.fold_left (fun acc poly -> acc +. float_of_int (Polygon.num_vertices poly)) acc
        (Region.pieces region))
    0.0 (Octant.Solver.cells s)

let test_config_defaults_pinned () =
  Alcotest.(check int) "threshold" 140
    Octant.Solver.default_config.Octant.Solver.simplify_vertex_threshold;
  Alcotest.(check (float 0.0)) "tolerance" 2.0
    Octant.Solver.default_config.Octant.Solver.simplify_tolerance_km;
  Alcotest.(check bool) "no hardening" true
    (Octant.Solver.default_config.Octant.Solver.harden = None);
  (* Leaving config out and spelling out today's constants are the same
     arrangement, bit for bit. *)
  let est_implicit, s_implicit = solve_with () in
  let est_explicit, s_explicit =
    solve_with
      ~config:
        {
          Octant.Solver.simplify_vertex_threshold = 140;
          simplify_tolerance_km = 2.0;
          harden = None;
        }
      ()
  in
  Alcotest.(check (float 0.0)) "same area" est_implicit.Octant.Solver.area_km2
    est_explicit.Octant.Solver.area_km2;
  Alcotest.(check (float 0.0)) "same point.x" est_implicit.Octant.Solver.point.Point.x
    est_explicit.Octant.Solver.point.Point.x;
  Alcotest.(check (float 0.0)) "same point.y" est_implicit.Octant.Solver.point.Point.y
    est_explicit.Octant.Solver.point.Point.y;
  Alcotest.(check (float 0.0)) "same vertex total" (total_vertices s_implicit)
    (total_vertices s_explicit)

let test_config_threshold_gates_simplification () =
  let est_default, s_default = solve_with () in
  let est_raw, s_raw =
    solve_with
      ~config:
        {
          Octant.Solver.simplify_vertex_threshold = max_int;
          simplify_tolerance_km = 2.0;
          harden = None;
        }
      ()
  in
  let v_default = total_vertices s_default in
  let v_raw = total_vertices s_raw in
  if not (v_raw > v_default) then
    Alcotest.failf "simplification never fired: %d vertices with threshold 140, %d without"
      (int_of_float v_default) (int_of_float v_raw);
  (* The 2 km tolerance must barely move the answer. *)
  let rel = Float.abs (est_default.Octant.Solver.area_km2 -. est_raw.Octant.Solver.area_km2)
            /. Float.max est_raw.Octant.Solver.area_km2 1.0 in
  if rel > 0.05 then
    Alcotest.failf "simplified area drifted %.1f%% from unsimplified" (100.0 *. rel);
  if Point.dist est_default.Octant.Solver.point est_raw.Octant.Solver.point > 10.0 then
    Alcotest.fail "simplified point estimate drifted more than 10 km"

let suite =
  [
    ( "backends",
      [
        QCheck_alcotest.to_alcotest prop_chain_parity;
        Alcotest.test_case "solver config defaults pinned" `Quick test_config_defaults_pinned;
        Alcotest.test_case "simplify threshold gates behavior" `Quick
          test_config_threshold_gates_simplification;
      ] );
  ]
