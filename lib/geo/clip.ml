exception Degenerate

(* Polygon-level boolean-operation telemetry: the pipeline's cost is
   dominated by these calls, and the counts are a pure function of the
   constraint stream, so they are part of the cross-jobs determinism
   signature.  [union] is implemented via [diff], so one union also
   counts one diff — the counters measure clipping work performed, not
   caller intent. *)
let c_inter = Obs.Telemetry.Counter.make ~domain:"clip" "inter"
let c_diff = Obs.Telemetry.Counter.make ~domain:"clip" "diff"
let c_union = Obs.Telemetry.Counter.make ~domain:"clip" "union"
let c_convex_fast_path = Obs.Telemetry.Counter.make ~domain:"clip" "convex_fast_path"
let c_retries = Obs.Telemetry.Counter.make ~domain:"clip" "degenerate_retries"
let c_fallbacks = Obs.Telemetry.Counter.make ~domain:"clip" "degenerate_fallbacks"

(* Edge pairs handed to [seg_isect], added once per traversal: the work the
   box tests below leave to the exact segment test. *)
let c_segment_tests = Obs.Telemetry.Counter.make ~domain:"clip" "segment_tests"

(* [inter]/[diff] calls answered by [apart] without a traversal. *)
let c_pairs_skipped = Obs.Telemetry.Counter.make ~domain:"clip" "pairs_skipped"

let area_floor = 1e-9
let alpha_eps = 1e-9

(* ------------------------------------------------------------------ *)
(* Sutherland–Hodgman fast path (both operands convex).                *)
(* ------------------------------------------------------------------ *)

(* The kernels below are allocation-free rewrites of the original
   list-consing implementations (kept verbatim as
   [test/geom_reference/clip_reference.ml], with an equivalence property
   suite): every float expression reproduces the Point-record arithmetic
   operation for operation, so results are bit-identical — the batch
   engine's golden files and cross-jobs determinism signature depend on
   that. *)

(* Keep the part of [src] on the left of the directed edge e1->e2 (for a
   counterclockwise clip polygon, its interior side), writing into [dst].
   orient2d e1 e2 p = (e2.x-e1.x)*(p.y-e1.y) - (e2.y-e1.y)*(p.x-e1.x). *)
let clip_halfplane_buf ~e1x ~e1y ~e2x ~e2y (src : Vbuf.t) (dst : Vbuf.t) =
  Vbuf.clear dst;
  let n = src.Vbuf.n in
  let xs = src.Vbuf.xs and ys = src.Vbuf.ys in
  let ux = e2x -. e1x and uy = e2y -. e1y in
  for i = 0 to n - 1 do
    let j = if i + 1 = n then 0 else i + 1 in
    let cx = Array.unsafe_get xs i and cy = Array.unsafe_get ys i in
    let nx = Array.unsafe_get xs j and ny = Array.unsafe_get ys j in
    let dc = (ux *. (cy -. e1y)) -. (uy *. (cx -. e1x)) in
    let dn = (ux *. (ny -. e1y)) -. (uy *. (nx -. e1x)) in
    if dc >= 0.0 then begin
      Vbuf.push dst cx cy;
      if dn < 0.0 then begin
        let t = dc /. (dc -. dn) in
        Vbuf.push dst (cx +. (t *. (nx -. cx))) (cy +. (t *. (ny -. cy)))
      end
    end
    else if dn >= 0.0 then begin
      let t = dc /. (dc -. dn) in
      Vbuf.push dst (cx +. (t *. (nx -. cx))) (cy +. (t *. (ny -. cy)))
    end
  done

let convex_inter a b =
  Vbuf.with_pair @@ fun buf0 buf1 ->
  Vbuf.load_points buf0 (Polygon.vertices a);
  let src = ref buf0 and dst = ref buf1 in
  let bv = Polygon.vertices b in
  let nb = Array.length bv in
  for j = 0 to nb - 1 do
    let e1 = Array.unsafe_get bv j in
    let e2 = Array.unsafe_get bv (if j + 1 = nb then 0 else j + 1) in
    clip_halfplane_buf ~e1x:e1.Point.x ~e1y:e1.Point.y ~e2x:e2.Point.x ~e2y:e2.Point.y !src !dst;
    let tmp = !src in
    src := !dst;
    dst := tmp
  done;
  if Vbuf.length !src < 3 then None
  else
    match Polygon.of_points (Vbuf.to_points !src) with
    | p -> if Polygon.area p < area_floor then None else Some p
    | exception Invalid_argument _ -> None

(* ------------------------------------------------------------------ *)
(* Greiner–Hormann machinery.                                          *)
(* ------------------------------------------------------------------ *)

(* The two rings with spliced intersection nodes, as one pooled
   structure-of-arrays over a shared index space: subject ring nodes first,
   clip ring nodes after.  [next]/[prev] stay within a ring; [neighbor]
   links a crossing to its twin on the other ring (-1 on plain vertices).
   Boxed per-node records cost ~9 words each (about a third of a general
   clip's allocation); these arrays are domain-local scratch that grows
   monotonically and is reused by every subsequent operation on the
   domain, so steady-state node storage allocates nothing. *)
type gh_scratch = {
  (* nodes *)
  mutable px : float array;
  mutable py : float array;
  mutable nxt : int array;
  mutable prv : int array;
  mutable nbr : int array;
  mutable entry : bool array;
  mutable isect : bool array;
  mutable visited : bool array;
  (* crossing sweep accumulator: subject edge, clip edge, both parameters,
     crossing point, and the node index each crossing received on each
     ring *)
  mutable is_i : int array;
  mutable is_j : int array;
  mutable is_t : float array;
  mutable is_u : float array;
  mutable is_x : float array;
  mutable is_y : float array;
  mutable snode : int array;
  mutable cnode : int array;
  mutable order : int array; (* per-edge sort scratch *)
  (* clip edges whose widened box meets the subject's widened box, in
     ascending edge order, with those widened boxes *)
  mutable cand : int array;
  mutable cx0 : float array;
  mutable cy0 : float array;
  mutable cx1 : float array;
  mutable cy1 : float array;
  mutable in_use : bool;
}

let gh_make nodes isects =
  {
    px = Array.make nodes 0.0;
    py = Array.make nodes 0.0;
    nxt = Array.make nodes 0;
    prv = Array.make nodes 0;
    nbr = Array.make nodes (-1);
    entry = Array.make nodes false;
    isect = Array.make nodes false;
    visited = Array.make nodes false;
    is_i = Array.make isects 0;
    is_j = Array.make isects 0;
    is_t = Array.make isects 0.0;
    is_u = Array.make isects 0.0;
    is_x = Array.make isects 0.0;
    is_y = Array.make isects 0.0;
    snode = Array.make isects 0;
    cnode = Array.make isects 0;
    order = Array.make isects 0;
    cand = Array.make nodes 0;
    cx0 = Array.make nodes 0.0;
    cy0 = Array.make nodes 0.0;
    cx1 = Array.make nodes 0.0;
    cy1 = Array.make nodes 0.0;
    in_use = false;
  }

let gh_key = Domain.DLS.new_key (fun () -> gh_make 256 64)

(* Growth keeps the live prefix: the crossing arrays grow in the middle of
   the sweep, while they hold every crossing recorded so far.  Scratch is
   never shrunk, so a domain reaches its working size once. *)
let grow a cap zero =
  let n = Array.length a in
  if n >= cap then a
  else begin
    let b = Array.make (Stdlib.max cap (2 * n)) zero in
    Array.blit a 0 b 0 n;
    b
  end

let grow_int a cap = grow a cap 0
let grow_float a cap = grow a cap 0.0
let grow_bool a cap = grow a cap false

let gh_ensure_nodes g cap =
  if Array.length g.px < cap then begin
    g.px <- grow_float g.px cap;
    g.py <- grow_float g.py cap;
    g.nxt <- grow_int g.nxt cap;
    g.prv <- grow_int g.prv cap;
    g.nbr <- grow_int g.nbr cap;
    g.entry <- grow_bool g.entry cap;
    g.isect <- grow_bool g.isect cap;
    g.visited <- grow_bool g.visited cap
  end

let gh_ensure_isects g cap =
  if Array.length g.is_i < cap then begin
    g.is_i <- grow_int g.is_i cap;
    g.is_j <- grow_int g.is_j cap;
    g.is_t <- grow_float g.is_t cap;
    g.is_u <- grow_float g.is_u cap;
    g.is_x <- grow_float g.is_x cap;
    g.is_y <- grow_float g.is_y cap;
    g.snode <- grow_int g.snode cap;
    g.cnode <- grow_int g.cnode cap;
    g.order <- grow_int g.order cap
  end

let gh_ensure_cands g cap =
  if Array.length g.cand < cap then begin
    g.cand <- grow_int g.cand cap;
    g.cx0 <- grow_float g.cx0 cap;
    g.cy0 <- grow_float g.cy0 cap;
    g.cx1 <- grow_float g.cx1 cap;
    g.cy1 <- grow_float g.cy1 cap
  end

(* Segment intersection with degeneracy detection.  Returns the parameters
   on both segments when they cross strictly in their interiors; raises
   [Degenerate] on touching/collinear configurations so the caller can
   perturb and retry.

   Runs once per edge pair that survives [gh_traverse]'s box tests, so it
   works on raw floats: the only allocation is the [Some] result on an
   actual crossing. *)
let seg_isect p1 p2 q1 q2 =
  let p1x = p1.Point.x and p1y = p1.Point.y in
  let p2x = p2.Point.x and p2y = p2.Point.y in
  let q1x = q1.Point.x and q1y = q1.Point.y in
  let q2x = q2.Point.x and q2y = q2.Point.y in
  let d1x = p2x -. p1x and d1y = p2y -. p1y in
  let d2x = q2x -. q1x and d2y = q2y -. q1y in
  let denom = (d1x *. d2y) -. (d1y *. d2x) in
  let scale =
    sqrt ((d1x *. d1x) +. (d1y *. d1y)) *. sqrt ((d2x *. d2x) +. (d2y *. d2y))
  in
  let ex = q1x -. p1x and ey = q1y -. p1y in
  if Float.abs denom <= 1e-12 *. (1.0 +. scale) then begin
    (* Parallel.  Collinear and overlapping is degenerate. *)
    let off = (d1x *. ey) -. (d1y *. ex) in
    if Float.abs off <= 1e-9 *. (1.0 +. sqrt ((d1x *. d1x) +. (d1y *. d1y))) then begin
      let len2 = (d1x *. d1x) +. (d1y *. d1y) in
      if len2 = 0.0 then None
      else begin
        let fx = q2x -. p1x and fy = q2y -. p1y in
        let t1 = ((ex *. d1x) +. (ey *. d1y)) /. len2 in
        let t2 = ((fx *. d1x) +. (fy *. d1y)) /. len2 in
        let lo = Float.min t1 t2 and hi = Float.max t1 t2 in
        if hi < -.alpha_eps || lo > 1.0 +. alpha_eps then None else raise Degenerate
      end
    end
    else None
  end
  else begin
    let t = ((ex *. d2y) -. (ey *. d2x)) /. denom in
    let u = ((ex *. d1y) -. (ey *. d1x)) /. denom in
    let strictly_inside x = x > alpha_eps && x < 1.0 -. alpha_eps in
    let near_end x = Float.abs x <= alpha_eps || Float.abs (x -. 1.0) <= alpha_eps in
    let in_range x = x >= -.alpha_eps && x <= 1.0 +. alpha_eps in
    if strictly_inside t && strictly_inside u then
      Some (t, u, Point.make (p1x +. (t *. (p2x -. p1x))) (p1y +. (t *. (p2y -. p1y))))
    else if (near_end t && in_range u) || (near_end u && in_range t) then raise Degenerate
    else None
  end

(* ------------------------------------------------------------------ *)
(* Box tests: which edge pairs can [seg_isect] answer?                 *)
(* ------------------------------------------------------------------ *)

(* [seg_isect p1 p2 q1 q2] returns [None] whenever the two segments' boxes
   are apart, in x or in y, by more than

     margin_base + margin_rate * (s1 + s2),  s = |dx| + |dy| >= edge length,

   provided the subject edge p1->p2 is at least 1e-3 km long.  Skipping
   such pairs therefore changes no crossing, no [Degenerate] raise and no
   output bit.  Write d1 = p2 - p1, d2 = q2 - q1, e = q1 - p1, and
   u = 2^-53 for the unit roundoff.

   - Parallel branch, |d1 x d2| <= 1e-12 (1 + |d1||d2|).  It answers only
     when q1 lies within 1e-9 (1 + |d1|) / |d1| of the subject's line and
     the projection of q meets the subject extended by alpha_eps |d1| at
     both ends.  q2 then lies within a further 1e-12 / |d1| + 1e-12 |d2| of
     that line, so the segments come within 1e-9 (1 + |d1|) / |d1|
     + 1e-12 / |d1| + 1e-12 |d2| + 1e-9 |d1| + O(u) of each other: below
     1.1e-6 km + 1.1e-9 (|d1| + |d2|) once |d1| >= 1e-3 km.  Below that
     length the band grows like 1e-9 / |d1| without bound, so shorter
     subject edges are tested against every clip edge.
   - Crossing branch.  It answers only when the computed t and u both lie
     in [-alpha_eps, 1 + alpha_eps].  Exactly, p1 + t d1 = q1 + u d2 is
     the lines' meeting point, within alpha_eps |d| of each segment.  In
     floating point Cramer's rule leaves a residual r = p1 + t d1 - q1
     - u d2 whose components across d1 and across d2 are at most
     u (4 |e| + |d2|) and u (4 |e| + |d1|), while the branch guarantees
     sin (d1, d2) > 0.9998e-12.  So |r| <= 1.11e-4 (8 |e| + |d1| + |d2|),
     and with |e| <= |d1| + |d2| + |r| the segments come within
     1.002e-3 (|d1| + |d2|).  This term is real: nearly collinear edges
     at 1e-12 rad whose ends are 1.2e-4 (|d1| + |d2|) apart are reported
     as crossing, so a margin that covered only the tolerance zones (the
     alpha_eps ends and the parallel band) would drop crossings.

   The margin is at least twice each bound.  Box corners are vertex
   coordinates, and widening them rounds by u |x| ~ 1e-12 km. *)
let margin_base = 1e-5
let margin_rate = 2e-3

(* Squared length below which a subject edge is never culled. *)
let short_edge2 = 1e-6

let edge_size (a : Point.t) (b : Point.t) =
  Float.abs (b.Point.x -. a.Point.x) +. Float.abs (b.Point.y -. a.Point.y)

(* A polygon's box with its largest edge size and its shortest squared edge
   length: what [apart] needs to bound every edge pair at once. *)
type extent = { x0 : float; y0 : float; x1 : float; y1 : float; size : float; shortest2 : float }

let extent poly =
  let v = Polygon.vertices poly in
  let n = Array.length v in
  let x0 = ref infinity and y0 = ref infinity in
  let x1 = ref neg_infinity and y1 = ref neg_infinity in
  let size = ref 0.0 and shortest2 = ref infinity in
  for i = 0 to n - 1 do
    let a = v.(i) and b = v.(if i + 1 = n then 0 else i + 1) in
    let x = a.Point.x and y = a.Point.y in
    if x < !x0 then x0 := x;
    if x > !x1 then x1 := x;
    if y < !y0 then y0 := y;
    if y > !y1 then y1 := y;
    let dx = b.Point.x -. x and dy = b.Point.y -. y in
    let s = Float.abs dx +. Float.abs dy in
    if s > !size then size := s;
    let l2 = (dx *. dx) +. (dy *. dy) in
    if l2 < !shortest2 then shortest2 := l2
  done;
  { x0 = !x0; y0 = !y0; x1 = !x1; y1 = !y1; size = !size; shortest2 = !shortest2 }

(* True when every edge pair of [subject] x [clip] is apart by more than
   its margin (no subject edge is short, and edge boxes lie inside polygon
   boxes), so the sweep finds nothing; and each polygon's vertices lie over
   1e-5 km outside the other's box, so the containment tests answer false
   without raising.  [gh_traverse subject clip] would return [None], [diff_once]
   [[subject]] and [inter_once] [[]], so [inter] and [diff] answer that
   from the boxes alone. *)
let apart subject clip =
  let subject = extent subject and clip = extent clip in
  subject.shortest2 >= short_edge2
  &&
  let m = margin_base +. (margin_rate *. (subject.size +. clip.size)) in
  clip.x0 > subject.x1 +. m
  || subject.x0 > clip.x1 +. m
  || clip.y0 > subject.y1 +. m
  || subject.y0 > clip.y1 +. m

(* Test one edge pair and record its crossing; returns the new count. *)
let test_pair g count i p1 p2 j q1 q2 =
  match seg_isect p1 p2 q1 q2 with
  | None -> count
  | Some (t, u, pt) ->
      gh_ensure_isects g (count + 1);
      g.is_i.(count) <- i;
      g.is_j.(count) <- j;
      g.is_t.(count) <- t;
      g.is_u.(count) <- u;
      g.is_x.(count) <- pt.Point.x;
      g.is_y.(count) <- pt.Point.y;
      count + 1

(* All crossings of [sv] against [cv], recorded in the scratch in the order
   of the full ns x nc sweep (i ascending, then j ascending), which only
   ever skips pairs [seg_isect] answers [None] for.  The clip edges whose
   widened box meets the subject's widened box become candidates; each
   long subject edge then tests the candidates whose box meets its own,
   and each short one tests every clip edge.  Returns the crossing count. *)
let sweep g (sv : Point.t array) (cv : Point.t array) =
  let ns = Array.length sv and nc = Array.length cv in
  let sx0 = ref infinity and sy0 = ref infinity in
  let sx1 = ref neg_infinity and sy1 = ref neg_infinity in
  let largest = ref 0.0 in
  for i = 0 to ns - 1 do
    let p = sv.(i) in
    let x = p.Point.x and y = p.Point.y in
    if x < !sx0 then sx0 := x;
    if x > !sx1 then sx1 := x;
    if y < !sy0 then sy0 := y;
    if y > !sy1 then sy1 := y;
    let s = edge_size p sv.(if i + 1 = ns then 0 else i + 1) in
    if s > !largest then largest := s
  done;
  let w = margin_base +. (margin_rate *. !largest) in
  let sx0 = !sx0 -. w and sy0 = !sy0 -. w and sx1 = !sx1 +. w and sy1 = !sy1 +. w in
  gh_ensure_cands g nc;
  let ncand = ref 0 in
  for j = 0 to nc - 1 do
    let a = cv.(j) and b = cv.(if j + 1 = nc then 0 else j + 1) in
    let m = margin_rate *. edge_size a b in
    let ax = a.Point.x and ay = a.Point.y and bx = b.Point.x and by = b.Point.y in
    let x0 = (if ax < bx then ax else bx) -. m and x1 = (if ax < bx then bx else ax) +. m in
    let y0 = (if ay < by then ay else by) -. m and y1 = (if ay < by then by else ay) +. m in
    if x0 <= sx1 && sx0 <= x1 && y0 <= sy1 && sy0 <= y1 then begin
      let k = !ncand in
      g.cand.(k) <- j;
      g.cx0.(k) <- x0;
      g.cy0.(k) <- y0;
      g.cx1.(k) <- x1;
      g.cy1.(k) <- y1;
      ncand := k + 1
    end
  done;
  let ncand = !ncand in
  let count = ref 0 and tests = ref 0 in
  match
    for i = 0 to ns - 1 do
      let p1 = sv.(i) and p2 = sv.(if i + 1 = ns then 0 else i + 1) in
      let p1x = p1.Point.x and p1y = p1.Point.y and p2x = p2.Point.x and p2y = p2.Point.y in
      let dx = p2x -. p1x and dy = p2y -. p1y in
      if (dx *. dx) +. (dy *. dy) < short_edge2 then
        for j = 0 to nc - 1 do
          incr tests;
          count := test_pair g !count i p1 p2 j cv.(j) cv.(if j + 1 = nc then 0 else j + 1)
        done
      else begin
        let m = margin_base +. (margin_rate *. (Float.abs dx +. Float.abs dy)) in
        let x0 = (if p1x < p2x then p1x else p2x) -. m and x1 = (if p1x < p2x then p2x else p1x) +. m in
        let y0 = (if p1y < p2y then p1y else p2y) -. m and y1 = (if p1y < p2y then p2y else p1y) +. m in
        for k = 0 to ncand - 1 do
          if g.cx0.(k) <= x1 && x0 <= g.cx1.(k) && g.cy0.(k) <= y1 && y0 <= g.cy1.(k) then begin
            let j = g.cand.(k) in
            incr tests;
            count := test_pair g !count i p1 p2 j cv.(j) cv.(if j + 1 = nc then 0 else j + 1)
          end
        done
      end
    done
  with
  | () ->
      Obs.Telemetry.Counter.add c_segment_tests !tests;
      !count
  | exception Degenerate ->
      Obs.Telemetry.Counter.add c_segment_tests !tests;
      raise Degenerate

let strict_inside poly p =
  if Polygon.on_boundary ~eps:1e-9 poly p then raise Degenerate;
  Polygon.contains poly p

(* Interior point of a polygon by a horizontal scanline through the middle
   of its bounding box; robust for non-convex shapes where the centroid can
   fall outside. *)
let interior_point poly =
  let v = Polygon.vertices poly in
  let lo, hi = Polygon.bounding_box poly in
  let y = (lo.Point.y +. hi.Point.y) /. 2.0 in
  let xs = ref [] in
  let n = Array.length v in
  for i = 0 to n - 1 do
    let a = v.(i) and b = v.((i + 1) mod n) in
    if (a.Point.y > y) <> (b.Point.y > y) then begin
      let t = (y -. a.Point.y) /. (b.Point.y -. a.Point.y) in
      xs := (a.Point.x +. (t *. (b.Point.x -. a.Point.x))) :: !xs
    end
  done;
  match List.sort compare !xs with
  | x1 :: x2 :: _ -> Point.make ((x1 +. x2) /. 2.0) y
  | _ -> Polygon.centroid poly

(* Build the two rings with intersection nodes spliced in, mark entry/exit
   flags, and run the Greiner–Hormann traversal.  [invert_subject] and
   [invert_clip] select the boolean operation: (false, false) computes the
   intersection, (true, false) the difference subject \ clip. *)
let gh_traverse ~invert_subject ~invert_clip subject clip =
  let sv = Polygon.vertices subject and cv = Polygon.vertices clip in
  let ns = Array.length sv and nc = Array.length cv in
  let g = Domain.DLS.get gh_key in
  (* The clipping operations never nest a traversal inside a traversal on
     one domain ([split_diff] recurses only after its own traversal has
     returned), so the domain scratch is free here; a throwaway instance
     covers any future reentrant caller rather than corrupting state. *)
  let g = if g.in_use then gh_make (ns + nc + 32) 64 else g in
  g.in_use <- true;
  Fun.protect ~finally:(fun () -> g.in_use <- false) @@ fun () ->
  let count = sweep g sv cv in
  if count = 0 then None
  else begin
    if count mod 2 = 1 then raise Degenerate;
    gh_ensure_nodes g (ns + nc + (2 * count));
    let idx = ref 0 in
    (* Build one ring: original vertices with the per-edge crossings
       spliced in parameter order.  [edge_sel]/[param_sel] pick the
       subject (is_i/is_t) or clip (is_j/is_u) view of the sweep results;
       [slot] records which node index each crossing received so the rings
       can be cross-linked afterwards. *)
    let build (verts : Point.t array) edge_sel (param : float array) (slot : int array) =
      let base = !idx in
      let nv = Array.length verts in
      for i = 0 to nv - 1 do
        let v = verts.(i) in
        let x = !idx in
        g.px.(x) <- v.Point.x;
        g.py.(x) <- v.Point.y;
        g.isect.(x) <- false;
        g.visited.(x) <- false;
        g.nbr.(x) <- (-1);
        incr idx;
        (* Crossings on edge i, sorted by parameter (insertion sort on
           index scratch; exact ties are degenerate anyway). *)
        let m = ref 0 in
        for k = 0 to count - 1 do
          if edge_sel k = i then begin
            g.order.(!m) <- k;
            incr m
          end
        done;
        for a = 1 to !m - 1 do
          let ka = g.order.(a) in
          let ta = param.(ka) in
          let b = ref (a - 1) in
          while !b >= 0 && param.(g.order.(!b)) > ta do
            g.order.(!b + 1) <- g.order.(!b);
            decr b
          done;
          g.order.(!b + 1) <- ka
        done;
        for a = 0 to !m - 2 do
          if param.(g.order.(a + 1)) -. param.(g.order.(a)) <= alpha_eps then raise Degenerate
        done;
        for a = 0 to !m - 1 do
          let k = g.order.(a) in
          let x = !idx in
          g.px.(x) <- g.is_x.(k);
          g.py.(x) <- g.is_y.(k);
          g.isect.(x) <- true;
          g.visited.(x) <- false;
          slot.(k) <- x;
          incr idx
        done
      done;
      let n = !idx - base in
      for i = 0 to n - 1 do
        g.nxt.(base + i) <- base + ((i + 1) mod n);
        g.prv.(base + i) <- base + ((i + n - 1) mod n)
      done;
      (base, n)
    in
    let s_base, s_n = build sv (fun k -> g.is_i.(k)) g.is_t g.snode in
    let c_base, c_n = build cv (fun k -> g.is_j.(k)) g.is_u g.cnode in
    for k = 0 to count - 1 do
      g.nbr.(g.snode.(k)) <- g.cnode.(k);
      g.nbr.(g.cnode.(k)) <- g.snode.(k)
    done;
    (* Entry/exit marking: walking the ring forward, an intersection node is
       an entry iff the walk was outside the other polygon just before it. *)
    let mark base n first_vertex other invert =
      let status = ref (not (strict_inside other first_vertex)) in
      let status = if invert then ref (not !status) else status in
      for x = base to base + n - 1 do
        if g.isect.(x) then begin
          g.entry.(x) <- !status;
          status := not !status
        end
      done
    in
    mark s_base s_n sv.(0) clip invert_subject;
    mark c_base c_n cv.(0) subject invert_clip;
    (* Traversal, accumulating each output ring in a scratch buffer. *)
    let results = ref [] in
    Vbuf.with_one (fun vb ->
        for start = s_base to s_base + s_n - 1 do
          if g.isect.(start) && not g.visited.(start) then begin
            g.visited.(start) <- true;
            g.visited.(g.nbr.(start)) <- true;
            Vbuf.clear vb;
            Vbuf.push vb g.px.(start) g.py.(start);
            let cur = ref start in
            let steps = ref 0 in
            let finished = ref false in
            while not !finished do
              incr steps;
              if !steps > (4 * (ns + nc + count)) + 16 then raise Degenerate;
              (* Walk along the current ring to the next intersection. *)
              let dir_next = g.entry.(!cur) in
              let rec walk () =
                cur := if dir_next then g.nxt.(!cur) else g.prv.(!cur);
                Vbuf.push vb g.px.(!cur) g.py.(!cur);
                if not g.isect.(!cur) then walk ()
              in
              walk ();
              g.visited.(!cur) <- true;
              (* Jump to the paired node on the other ring. *)
              let nb = g.nbr.(!cur) in
              if nb < 0 then raise Degenerate;
              g.visited.(nb) <- true;
              cur := nb;
              if !cur = start then finished := true
            done;
            match Polygon.of_points (Vbuf.to_points vb) with
            | poly -> if Polygon.area poly >= area_floor then results := poly :: !results
            | exception Invalid_argument _ -> ()
          end
        done);
    Some !results
  end

(* ------------------------------------------------------------------ *)
(* Perturbation wrapper.                                               *)
(* ------------------------------------------------------------------ *)

(* Deterministic micro-perturbation of a polygon: a rotation of ~1e-12 rad
   around its centroid plus a sub-nanometer translation, scaled up on each
   retry.  This breaks vertex-on-edge and collinear-overlap ties without
   visibly moving anything at geolocalization scales. *)
let perturb k poly =
  let eps = 1e-9 *. (8.0 ** float_of_int k) in
  let c = Polygon.centroid poly in
  let delta = Point.make eps (0.618 *. eps) in
  Polygon.transform (fun p -> Point.add (Point.rotate_around ~center:c p (eps *. 1e-4)) delta) poly

let max_retries = 7

let dump_degenerate a b =
  match Sys.getenv_opt "GEO_CLIP_DEBUG" with
  | None -> ()
  | Some path ->
      let oc = open_out path in
      let dump poly =
        Array.iter
          (fun p -> Printf.fprintf oc "%.17g %.17g\n" p.Point.x p.Point.y)
          (Polygon.vertices poly);
        Printf.fprintf oc "---\n"
      in
      dump a;
      dump b;
      close_out oc

let with_retry ?fallback f a b =
  let rec go k a =
    if k > max_retries then begin
      Obs.Telemetry.Counter.incr c_fallbacks;
      match fallback with
      | Some g -> g ()
      | None ->
          dump_degenerate a b;
          raise Degenerate
    end
    else begin
      (* Halfway through the retries, also scrub the subject: persistent
         degeneracies usually come from debris on cell boundaries rather
         than from the (freshly perturbed) clip polygon. *)
      let a =
        if k = 4 then match Polygon.cleanup ~eps:1e-3 a with Some a' -> a' | None -> a
        else a
      in
      let b' = if k = 0 then b else perturb k b in
      try f a b'
      with Degenerate ->
        Obs.Telemetry.Counter.incr c_retries;
        go (k + 1) a
    end
  in
  go 0 a

(* ------------------------------------------------------------------ *)
(* Public operations.                                                  *)
(* ------------------------------------------------------------------ *)

let keep_significant polys =
  List.filter_map (fun p -> if Polygon.area p >= area_floor then Polygon.cleanup p else None) polys

(* Over-approximating last resorts: when a boolean operation is
   irrecoverably degenerate, fall back to a result that can only ADD area,
   never remove the true location from a candidate region. *)
let hull_polygon b =
  match Polygon.of_points (Convex_hull.hull (Polygon.vertices b)) with
  | p -> Some p
  | exception Invalid_argument _ -> None

let inter_fallback a b () =
  match hull_polygon b with
  | Some hb -> ( match convex_inter a hb with Some p -> [ p ] | None -> [])
  | None -> []

let inter_once a b =
  match gh_traverse ~invert_subject:false ~invert_clip:false a b with
  | Some polys -> keep_significant polys
  | None ->
      (* No boundary crossings: containment or disjoint. *)
      if strict_inside b (Polygon.vertices a).(0) then [ a ]
      else if strict_inside a (Polygon.vertices b).(0) then [ b ]
      else []

(* Sutherland–Hodgman is not covered by [apart], so the convex fast path
   comes first. *)
let inter a b =
  Obs.Telemetry.Counter.incr c_inter;
  if Polygon.is_convex a && Polygon.is_convex b then begin
    Obs.Telemetry.Counter.incr c_convex_fast_path;
    match convex_inter a b with Some p -> [ p ] | None -> []
  end
  else if apart a b then begin
    Obs.Telemetry.Counter.incr c_pairs_skipped;
    []
  end
  else with_retry ~fallback:(inter_fallback a b) inter_once a b

(* Difference with the hole case eliminated by splitting: when the clip is
   strictly inside the subject, cut the subject in two along a vertical
   line through an interior point of the clip, so that both halves' borders
   cross the clip and the recursive differences stay hole-free. *)
let rec diff_once a b =
  match gh_traverse ~invert_subject:true ~invert_clip:false a b with
  | Some polys -> keep_significant polys
  | None ->
      if strict_inside b (Polygon.vertices a).(0) then []
      else if strict_inside a (Polygon.vertices b).(0) then split_diff a b
      else [ a ]

and split_diff a b =
  let lo, hi = Polygon.bounding_box a in
  let margin = 1.0 +. (hi.Point.x -. lo.Point.x) +. (hi.Point.y -. lo.Point.y) in
  let split_x = (interior_point b).Point.x in
  let left =
    Polygon.rectangle
      (Point.make (lo.Point.x -. margin) (lo.Point.y -. margin))
      (Point.make split_x (hi.Point.y +. margin))
  in
  let right =
    Polygon.rectangle
      (Point.make split_x (lo.Point.y -. margin))
      (Point.make (hi.Point.x +. margin) (hi.Point.y +. margin))
  in
  let halves =
    with_retry ~fallback:(inter_fallback a left) inter_once a left
    @ with_retry ~fallback:(inter_fallback a right) inter_once a right
  in
  List.concat_map (fun half -> with_retry ~fallback:(fun () -> [ half ]) diff_once half b) halves

let diff a b =
  Obs.Telemetry.Counter.incr c_diff;
  if apart a b then begin
    Obs.Telemetry.Counter.incr c_pairs_skipped;
    [ a ]
  end
  else with_retry ~fallback:(fun () -> [ a ]) diff_once a b

(* Union as [a + (b \ a)]: keeps every output polygon simple and hole-free
   (a union of two crossing simple polygons can enclose a hole, which a
   single-ring representation cannot express; the difference decomposition
   sidesteps that entirely). *)
let union a b =
  Obs.Telemetry.Counter.incr c_union;
  match diff b a with
  | [] -> [ a ]
  | pieces ->
      (* If b survived untouched the polygons are disjoint. *)
      [ a ] @ pieces
