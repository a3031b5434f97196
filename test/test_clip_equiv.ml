(* Equivalence property suite: the allocation-slim buffer kernels in
   lib/geo/clip.ml against the original list-based implementations kept in
   test/geom_reference/clip_reference.ml.

   The contract is stronger than geometric equality: the buffer kernels
   reproduce the reference float arithmetic operation for operation, so
   every output polygon must match VERTEX FOR VERTEX with exact float
   equality, on convex inputs (Sutherland–Hodgman fast path) and
   non-convex ones (Greiner–Hormann, perturbation retries included).
   Anything weaker would let the optimized kernels drift away from the
   batch engine's golden files silently. *)

module Ref = Geom_reference.Clip_reference

(* ---- deterministic polygon generators over a seed ---- *)

let rand_star rng =
  let cx = Stats.Rng.uniform rng (-150.0) 150.0 in
  let cy = Stats.Rng.uniform rng (-150.0) 150.0 in
  let n = 6 + Stats.Rng.int rng 10 in
  let pts =
    Array.init n (fun i ->
        let base = 2.0 *. Float.pi *. float_of_int i /. float_of_int n in
        let theta = base +. Stats.Rng.uniform rng 0.0 (4.0 /. float_of_int n) in
        let r = Stats.Rng.uniform rng 25.0 160.0 in
        Geo.Point.make (cx +. (r *. cos theta)) (cy +. (r *. sin theta)))
  in
  Geo.Polygon.of_points pts

let rand_convex rng =
  let cx = Stats.Rng.uniform rng (-150.0) 150.0 in
  let cy = Stats.Rng.uniform rng (-150.0) 150.0 in
  let pts =
    Array.init 18 (fun _ ->
        Geo.Point.make
          (cx +. Stats.Rng.uniform rng (-140.0) 140.0)
          (cy +. Stats.Rng.uniform rng (-140.0) 140.0))
  in
  Geo.Polygon.of_points (Geo.Convex_hull.hull pts)

(* qcheck drives the generators through an integer seed, so every failure
   report is a one-number repro. *)
let arb_seed = QCheck.make ~print:string_of_int QCheck.Gen.(0 -- 1_000_000)

let poly_pair ~convex seed =
  let rng = Stats.Rng.create (seed + 913) in
  if convex then (rand_convex rng, rand_convex rng)
  else
    let mk rng = if Stats.Rng.bool rng then rand_star rng else rand_convex rng in
    let a = mk rng in
    let b = mk rng in
    (a, b)

let same_polygon p q =
  let pv = Geo.Polygon.vertices p and qv = Geo.Polygon.vertices q in
  Array.length pv = Array.length qv
  && begin
       let ok = ref true in
       Array.iteri
         (fun i (v : Geo.Point.t) ->
           let w = qv.(i) in
           if not (Float.equal v.Geo.Point.x w.Geo.Point.x && Float.equal v.Geo.Point.y w.Geo.Point.y)
           then ok := false)
         pv;
       !ok
     end

let same_list name seed got expect =
  if List.length got <> List.length expect then
    QCheck.Test.fail_reportf "seed %d: %s produced %d polygons, reference %d" seed name
      (List.length got) (List.length expect);
  List.iter2
    (fun g e ->
      if not (same_polygon g e) then
        QCheck.Test.fail_reportf "seed %d: %s polygon differs from reference:@.%a@.vs@.%a" seed
          name Geo.Polygon.pp g Geo.Polygon.pp e)
    got expect;
  true

(* ---- properties ---- *)

let prop_convex_inter =
  QCheck.Test.make ~count:300 ~name:"convex_inter matches reference bit for bit" arb_seed
    (fun seed ->
      let a, b = poly_pair ~convex:true seed in
      match (Geo.Clip.convex_inter a b, Ref.convex_inter a b) with
      | None, None -> true
      | Some p, Some q ->
          if same_polygon p q then true
          else
            QCheck.Test.fail_reportf "seed %d: convex_inter vertices differ:@.%a@.vs@.%a" seed
              Geo.Polygon.pp p Geo.Polygon.pp q
      | Some _, None -> QCheck.Test.fail_reportf "seed %d: got Some, reference None" seed
      | None, Some _ -> QCheck.Test.fail_reportf "seed %d: got None, reference Some" seed)

let prop_inter =
  QCheck.Test.make ~count:250 ~name:"inter matches reference vertex-for-vertex" arb_seed
    (fun seed ->
      let a, b = poly_pair ~convex:false seed in
      same_list "inter" seed (Geo.Clip.inter a b) (Ref.inter a b))

let prop_diff =
  QCheck.Test.make ~count:250 ~name:"diff matches reference vertex-for-vertex" arb_seed
    (fun seed ->
      let a, b = poly_pair ~convex:false seed in
      same_list "diff" seed (Geo.Clip.diff a b) (Ref.diff a b))

let prop_union =
  QCheck.Test.make ~count:150 ~name:"union matches reference vertex-for-vertex" arb_seed
    (fun seed ->
      let a, b = poly_pair ~convex:false seed in
      same_list "union" seed (Geo.Clip.union a b) (Ref.union a b))

let prop_of_points =
  QCheck.Test.make ~count:400 ~name:"Polygon.of_points dedup matches list-based reference"
    arb_seed (fun seed ->
      let rng = Stats.Rng.create (seed + 3271) in
      (* Raw rings with deliberate duplicate runs and a closing repeat,
         the debris dedup exists to clean up. *)
      let n = 3 + Stats.Rng.int rng 12 in
      let base =
        Array.init n (fun i ->
            let theta = 2.0 *. Float.pi *. float_of_int i /. float_of_int n in
            let r = Stats.Rng.uniform rng 10.0 120.0 in
            Geo.Point.make (r *. cos theta) (r *. sin theta))
      in
      let noisy =
        Array.concat
          (List.concat_map
             (fun p ->
               let dups = 1 + Stats.Rng.int rng 2 in
               [ Array.make dups p ])
             (Array.to_list base)
          @ if Stats.Rng.bool rng then [ [| base.(0) |] ] else [])
      in
      match (Geo.Polygon.of_points noisy, Ref.of_points_ref noisy) with
      | poly, ring ->
          let pv = Geo.Polygon.vertices poly in
          if Array.length pv <> Array.length ring then
            QCheck.Test.fail_reportf "seed %d: of_points kept %d vertices, reference %d" seed
              (Array.length pv) (Array.length ring)
          else begin
            Array.iteri
              (fun i (v : Geo.Point.t) ->
                let w = ring.(i) in
                if
                  not
                    (Float.equal v.Geo.Point.x w.Geo.Point.x
                    && Float.equal v.Geo.Point.y w.Geo.Point.y)
                then
                  QCheck.Test.fail_reportf "seed %d: of_points vertex %d differs" seed i)
              pv;
            true
          end
      | exception Invalid_argument _ -> (
          (* Both must reject the same inputs. *)
          match Ref.of_points_ref noisy with
          | exception Invalid_argument _ -> true
          | _ -> QCheck.Test.fail_reportf "seed %d: of_points raised, reference accepted" seed))

(* ---- adversarial cases ----

   The random stars and hulls above almost never put two edges within a
   rounding error of each other, so a crossing sweep that culled edge
   pairs with too small a margin would pass them.  These cases put edges
   exactly where the segment test's tolerance zones and rounding live:
   a dropped pair there drops a degeneracy (and its perturbed retry) or a
   crossing, and the output vertices change. *)

let poly pts = Geo.Polygon.of_points (Array.map (fun (x, y) -> Geo.Point.make x y) pts)
let rect x0 y0 x1 y1 = Geo.Polygon.rectangle (Geo.Point.make x0 y0) (Geo.Point.make x1 y1)

let expect_same name got expect =
  let n = List.length expect in
  if List.length got <> n then
    Alcotest.failf "%s: %d polygons, reference %d" name (List.length got) n;
  List.iter2
    (fun g e ->
      if not (same_polygon g e) then
        Alcotest.failf "%s: polygon differs from reference:@.%a@.vs@.%a" name Geo.Polygon.pp g
          Geo.Polygon.pp e)
    got expect

let check_ops name a b =
  expect_same (name ^ " inter") (Geo.Clip.inter a b) (Ref.inter a b);
  expect_same (name ^ " diff") (Geo.Clip.diff a b) (Ref.diff a b);
  expect_same (name ^ " union") (Geo.Clip.union a b) (Ref.union a b);
  let ra = Geo.Region.of_polygon a and rb = Geo.Region.of_polygon b in
  expect_same (name ^ " region inter") (Geo.Region.pieces (Geo.Region.inter ra rb))
    (Ref.pieces_inter [ a ] [ b ]);
  expect_same (name ^ " region diff") (Geo.Region.pieces (Geo.Region.diff ra rb))
    (Ref.pieces_diff [ a ] [ b ])

(* Both operand orders, so each polygon plays subject and clip. *)
let check_both name a b =
  check_ops name a b;
  check_ops (name ^ " (swapped)") b a

(* A notched chevron crossing the square [0, 100]^2 through its right
   edge, with its tip [delta] inside the left edge: a subject vertex just
   short of a clip edge, next to real crossings. *)
let t_junction () =
  let square = rect 0.0 0.0 100.0 100.0 in
  List.iter
    (fun delta ->
      let chevron =
        poly [| (150.0, 30.0); (130.0, 50.0); (150.0, 70.0); (60.0, 70.0); (delta, 50.0); (60.0, 30.0) |]
      in
      check_both (Printf.sprintf "T-junction delta=%g" delta) chevron square)
    [ 0.0; 1e-12; 1e-10; 1e-8 ]

(* Rectangles sharing an edge, a corner, part of an edge, or separated by
   1e-10 km along a shared line; the last pair is a world box and one of
   its quadrants. *)
let shared_rectangles () =
  let a = rect 0.0 0.0 100.0 100.0 in
  List.iter
    (fun (name, b) -> check_both name a b)
    [
      ("shared edge", rect 100.0 0.0 200.0 100.0);
      ("shared corner", rect 100.0 100.0 200.0 200.0);
      ("shared part of an edge", rect 50.0 0.0 150.0 100.0);
      ("1e-10 apart on one line", rect (100.0 +. 1e-10) 0.0 200.0 100.0);
      ("nested on two edges", rect 0.0 0.0 50.0 50.0);
    ];
  check_both "world box and a quadrant" (rect (-180.0) (-90.0) 180.0 90.0) (rect 0.0 0.0 180.0 90.0)

(* The chevron's tip is an edge 1e-7 km long, and the clip's notch ends in
   a parallel edge 1e-6 km long 5e-3 km away.  The segment test treats a
   short subject edge as collinear with anything within 1e-9 / length of
   its line, here 1e-2 km, so this pair is degenerate although its boxes
   are far apart relative to both edges. *)
let short_edges () =
  let chevron =
    poly
      [|
        (150.0, 30.0); (130.0, 50.0); (150.0, 70.0); (60.0, 70.0); (50.0, 50.0 +. 5e-8);
        (50.0, 50.0 -. 5e-8); (60.0, 30.0);
      |]
  in
  let notched =
    poly
      [|
        (0.0, 0.0); (120.0, 0.0); (120.0, 40.0); (49.995, 50.0 -. 5e-7); (49.995, 50.0 +. 5e-7);
        (120.0, 60.0); (120.0, 100.0); (0.0, 100.0);
      |]
  in
  check_both "short edges" chevron notched

(* A subject whose bottom edge runs parallel to the square's bottom edge,
   [offset] below it (and, in the tilted variant, turned by 1e-9 rad), and
   which crosses the square's top edge. *)
let near_parallel () =
  let square = rect 0.0 0.0 100.0 100.0 in
  List.iter
    (fun offset ->
      List.iter
        (fun tilt ->
          let subject =
            poly
              [|
                (20.0, -.offset); (80.0, -.offset -. (60.0 *. tilt)); (80.0, 150.0); (50.0, 120.0);
                (20.0, 150.0);
              |]
          in
          check_both (Printf.sprintf "near-parallel offset=%g tilt=%g" offset tilt) subject square)
        [ 0.0; 1e-9 ])
    [ 1e-7; 1e-6; 1e-5; 1e-4 ]

(* Edges p1->p2 and q1->q2, 200 km long and turned 1.0e-12 to 1.3e-12 rad
   from each other, where q1 lies 0.013 km beyond p2 on nearly the same
   line.  The crossing branch's rounding makes [seg_isect] report this pair
   as degenerate, although the boxes are 0.013 km apart: more than a
   margin of 1e-5 (1 + extent) for polygons a few hundred km across.  Each
   edge becomes the base of a triangle; the clip's apex sits inside the
   subject, so the pair also crosses for real. *)
let collinear_gaps =
  [
    ( (-0x1.4e510aaf0519bp+7, -0x1.3544e037f897cp+7),
      (-0x1.4e64739ca71fp+5, 0x1.33beaee9455p+0),
      (-0x1.4e4de73fd3203p+5, 0x1.373fa6afefaf5p+0),
      (0x1.4e48e7efca59p+6, 0x1.3a1adce32c1acp+7) );
    ( (0x1.667f762ae0644p+6, -0x1.5f3ba532e41cfp+7),
      (0x1.06b7b8445794ep+8, -0x1.2db1144e352a7p+6),
      (0x1.06bb2828bda72p+8, -0x1.2da91f0834f85p+6),
      (0x1.b3d302e25c97p+8, 0x1.8c745c3d87778p+4) );
    ( (0x1.04dd4eb7119a2p+7, 0x1.edac6ad0a792p+6),
      (-0x1.048d22660a9cp+5, 0x1.de9e2de13a366p+7),
      (-0x1.04a8373d5c17bp+5, 0x1.dea2fe285f65fp+7),
      (-0x1.872aa51fec504p+7, 0x1.63357b50a22f2p+8) );
    ( (0x1.78372410dd224p+7, -0x1.01a8fee7caf52p+7),
      (0x1.265a93c73364ep+8, -0x1.2a4688bb03564p+8),
      (0x1.265ca1291982bp+8, -0x1.2a49cea18132bp+8),
      (0x1.909ba2e7df31p+8, -0x1.d3bbd7e89e856p+8) );
  ]

let rounding_gaps () =
  List.iteri
    (fun k ((p1x, p1y), (p2x, p2y), (q1x, q1y), (q2x, q2y)) ->
      let dx = p2x -. p1x and dy = p2y -. p1y in
      let len = sqrt ((dx *. dx) +. (dy *. dy)) in
      let nx = -.dy /. len and ny = dx /. len in
      let mx = (p1x +. p2x) /. 2.0 and my = (p1y +. p2y) /. 2.0 in
      let subject = poly [| (p1x, p1y); (p2x, p2y); (mx +. (80.0 *. nx), my +. (80.0 *. ny)) |] in
      let clip = poly [| (q1x, q1y); (q2x, q2y); (mx +. (40.0 *. nx), my +. (40.0 *. ny)) |] in
      check_both (Printf.sprintf "collinear gap %d" k) subject clip)
    collinear_gaps

(* Sixty teeth through a rectangle: 120 crossings in one traversal. *)
let comb =
  poly
    (Array.concat
       ([| (0.0, 0.0); (119.0, 0.0) |]
       :: List.init 60 (fun k ->
              let i = float_of_int (59 - k) in
              [| ((2.0 *. i) +. 1.0, 1.0); ((2.0 *. i) +. 1.0, 10.0); (2.0 *. i, 10.0); (2.0 *. i, 1.0) |]
          )))

let comb_clip = rect (-5.0) 5.0 125.0 20.0

let comb_cases () = check_both "comb" comb comb_clip

module T = Obs.Telemetry

let with_telemetry f =
  let was = T.is_enabled () in
  T.enable ();
  T.reset ();
  Fun.protect ~finally:(fun () -> if not was then T.disable ()) f

let clip_counter name =
  List.fold_left
    (fun acc c -> if c.T.c_domain = "clip" && c.T.c_name = name then c.T.c_value else acc)
    0 (T.snapshot ()).T.counters

(* Operands whose boxes are far apart are answered from the boxes, without
   a traversal: in each order, [Clip.inter], [diff], [union] (through its
   [diff]) and the two [Region] operations skip once each. *)
let apart_operands () =
  with_telemetry @@ fun () ->
  check_both "comb and a far rectangle" comb (rect 200.0 0.0 300.0 50.0);
  Alcotest.(check int) "operations answered from boxes" 10 (clip_counter "pairs_skipped")

(* The first clip on a fresh domain starts from the smallest crossing
   scratch, so a comb's 120 crossings grow it mid-sweep.  Growth must keep
   the crossings already recorded: losing them raises a spurious
   degeneracy, and the perturbed retry returns other vertices than a warm
   domain would. *)
let comb_fresh_domain () =
  with_telemetry @@ fun () ->
  List.iter
    (fun (name, op, reference) ->
      T.reset ();
      let got = Domain.join (Domain.spawn (fun () -> op comb comb_clip)) in
      Alcotest.(check int) (name ^ ": no degenerate retry") 0 (clip_counter "degenerate_retries");
      expect_same (name ^ " on a fresh domain") got (reference comb comb_clip))
    [ ("inter", Geo.Clip.inter, Ref.inter); ("diff", Geo.Clip.diff, Ref.diff) ]

(* The daemon clips on two systhreads of domain 0 (its batcher thread
   and its session thread), which share that domain's buffer pool.  Both
   threads run the same inter/diff workload over convex (Sutherland–
   Hodgman) and non-convex (Greiner–Hormann) pairs, for long enough that
   the runtime switches between them many times mid-clip; every result
   must equal the single-threaded one. *)
let two_systhreads () =
  let pairs =
    List.concat_map
      (fun seed -> [ poly_pair ~convex:true seed; poly_pair ~convex:false seed ])
      (List.init 16 Fun.id)
  in
  let run () = List.concat_map (fun (a, b) -> [ Geo.Clip.inter a b; Geo.Clip.diff a b ]) pairs in
  let expected = run () in
  let same got = List.for_all2 (fun g e -> List.equal same_polygon g e) got expected in
  let mismatches = Atomic.make 0 in
  let worker () =
    for _ = 1 to 2000 do
      if not (same (run ())) then Atomic.incr mismatches
    done
  in
  let threads = List.init 2 (fun _ -> Thread.create worker ()) in
  List.iter Thread.join threads;
  Alcotest.(check int) "rounds that differ from the single-threaded run" 0
    (Atomic.get mismatches)

let suite =
  [
    ( "clip-equivalence",
      [
        QCheck_alcotest.to_alcotest prop_convex_inter;
        QCheck_alcotest.to_alcotest prop_inter;
        QCheck_alcotest.to_alcotest prop_diff;
        QCheck_alcotest.to_alcotest prop_union;
        QCheck_alcotest.to_alcotest prop_of_points;
        Alcotest.test_case "comb on a fresh domain: no spurious retry" `Quick comb_fresh_domain;
        Alcotest.test_case "T-junctions: vertex 0 to 1e-8 km short of an edge" `Quick t_junction;
        Alcotest.test_case "rectangles sharing edges and corners" `Quick shared_rectangles;
        Alcotest.test_case "subject and clip edges shorter than 1e-3 km" `Quick short_edges;
        Alcotest.test_case "near-parallel edges 1e-7 to 1e-4 km apart" `Quick near_parallel;
        Alcotest.test_case "nearly collinear edges with a rounding-sized gap" `Quick rounding_gaps;
        Alcotest.test_case "comb: 120 crossings in one traversal" `Quick comb_cases;
        Alcotest.test_case "operands with far-apart boxes skip the traversal" `Quick apart_operands;
        Alcotest.test_case "two systhreads of one domain share the buffer pool" `Quick
          two_systhreads;
      ] );
  ]
