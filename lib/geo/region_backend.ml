(* Region backends: the concrete implementations of {!Region_intf.S} and
   the spec/instantiate machinery that picks one per localization.

   The hybrid backend depends on world geometry (its prefilter needs a
   lattice pitch matched to the world span), so a backend cannot be a
   single global module: configs carry a [spec] and [instantiate] builds
   the module once the world region of a target is known. *)

(* ---- exact: Region.t verbatim ---- *)

module Exact = struct
  type t = Region.t

  let name = "exact"
  let empty = Region.empty
  let is_empty = Region.is_empty
  let of_region r = r
  let to_region r = r
  let pieces = Region.pieces
  let inter = Region.inter
  let union = Region.union
  let diff = Region.diff
  let area = Region.area
  let contains = Region.contains
  let centroid = Region.centroid
  let bounding_box = Region.bounding_box

  let vertex_count r =
    List.fold_left (fun acc p -> acc + Polygon.num_vertices p) 0 (Region.pieces r)

  let simplify ~tolerance r = Region.simplify ~tolerance r
end

let exact : Region_intf.packed = (module Exact)

(* ---- hybrid: exact polygons behind a bbox + occupancy prefilter ----

   [Region.inter]/[diff] clip every piece of one operand against every
   piece of the other, including pairs that are nowhere near each other,
   in annulus-heavy arrangements where each region is many scattered
   fragments.  [Clip] answers pairs whose boxes are far apart from the
   boxes alone, so this prefilter no longer measures faster than exact
   (DESIGN §6c).  The hybrid representation keeps the exact
   polygons but tags each piece with its bounding box and a lazy coarse
   occupancy bitmask on a world-aligned lattice:

   - disjoint bboxes        -> skip the clip (near-exact: the boxes are
                               tested with no margin, so a pair within
                               the segment test's tolerance of touching
                               skips the degeneracy retries the exact
                               kernel runs, and its result can differ
                               from the exact one);
   - no shared occupied cell-> skip the clip (approximate: center-sampled
                               occupancy can miss sub-cell overlap; the
                               error budget is measured by `bench region`
                               against the exact backend);
   - otherwise              -> pay the exact clip.

   The occupancy mask is lazy because most pieces die (are clipped away or
   fused) before anyone asks; pieces that survive many constraints
   amortize one rasterization over many prefilter tests. *)

type occupancy =
  | Occ_full  (* piece too large to rasterize cheaply: never grid-skip *)
  | Occ_mask of { i0 : int; j0 : int; w : int; h : int; bits : Bytes.t }

type hybrid_piece = {
  poly : Polygon.t;
  plo : Point.t;
  phi : Point.t;
  occ : occupancy Lazy.t;
}

(* Prefilter tallies, process-wide across all hybrid instantiations.
   Plain atomics, deliberately not Telemetry counters: the bench suite
   asserts that disabled telemetry records zero events, and these tallies
   must be available to `bench region` without enabling telemetry. *)
let n_exact_clips = Atomic.make 0
let n_skipped_bbox = Atomic.make 0
let n_skipped_grid = Atomic.make 0

type hybrid_stats = { exact_clips : int; skipped_bbox : int; skipped_grid : int }

let hybrid_stats () =
  {
    exact_clips = Atomic.get n_exact_clips;
    skipped_bbox = Atomic.get n_skipped_bbox;
    skipped_grid = Atomic.get n_skipped_grid;
  }

let reset_hybrid_stats () =
  Atomic.set n_exact_clips 0;
  Atomic.set n_skipped_bbox 0;
  Atomic.set n_skipped_grid 0

(* Beyond this many lattice cells a piece's mask costs more than the clips
   it could skip; such pieces fall back to bbox-only filtering. *)
let max_mask_cells = 4096

let occupancy_of ~cell_km poly (lo : Point.t) (hi : Point.t) =
  let i0 = int_of_float (Float.floor (lo.Point.x /. cell_km)) in
  let j0 = int_of_float (Float.floor (lo.Point.y /. cell_km)) in
  let i1 = int_of_float (Float.floor (hi.Point.x /. cell_km)) in
  let j1 = int_of_float (Float.floor (hi.Point.y /. cell_km)) in
  let w = i1 - i0 + 1 and h = j1 - j0 + 1 in
  if w <= 0 || h <= 0 || w * h > max_mask_cells then Occ_full
  else begin
    let bits = Bytes.make (w * h) '\000' in
    (* Scanline parity fill on cell centers: O(rows * vertices + cells)
       instead of a point-in-polygon test per cell. *)
    let vs = Polygon.vertices poly in
    let nv = Array.length vs in
    for j = 0 to h - 1 do
      let cy = (float_of_int (j0 + j) +. 0.5) *. cell_km in
      let xs = ref [] in
      for k = 0 to nv - 1 do
        let p = vs.(k) and q = vs.((k + 1) mod nv) in
        let y1 = p.Point.y and y2 = q.Point.y in
        if (y1 <= cy && y2 > cy) || (y2 <= cy && y1 > cy) then
          xs := p.Point.x +. ((cy -. y1) /. (y2 -. y1) *. (q.Point.x -. p.Point.x)) :: !xs
      done;
      let rec fill = function
        | x0 :: x1 :: rest ->
            (* Cells whose center (i + 0.5) * cell_km lies in [x0, x1]. *)
            let lo = Stdlib.max 0 (int_of_float (Float.ceil ((x0 /. cell_km) -. 0.5)) - i0) in
            let hi =
              Stdlib.min (w - 1) (int_of_float (Float.floor ((x1 /. cell_km) -. 0.5)) - i0)
            in
            for i = lo to hi do
              Bytes.set bits ((j * w) + i) '\001'
            done;
            fill rest
        | _ -> ()
      in
      fill (List.sort compare !xs)
    done;
    (* Thin pieces (annulus slivers, clipped arcs) can thread between cell
       centers; marking every vertex's cell keeps them visible to the
       prefilter so overlap with them is never grid-skipped. *)
    Array.iter
      (fun (v : Point.t) ->
        let i = int_of_float (Float.floor (v.Point.x /. cell_km)) - i0 in
        let j = int_of_float (Float.floor (v.Point.y /. cell_km)) - j0 in
        if i >= 0 && i < w && j >= 0 && j < h then Bytes.set bits ((j * w) + i) '\001')
      (Polygon.vertices poly);
    Occ_mask { i0; j0; w; h; bits }
  end

(* Strict inequalities, like the solver's historical [boxes_meet]: boxes
   that merely touch produce zero-area clips, which drop anyway. *)
let boxes_meet a b =
  a.plo.Point.x < b.phi.Point.x
  && a.phi.Point.x > b.plo.Point.x
  && a.plo.Point.y < b.phi.Point.y
  && a.phi.Point.y > b.plo.Point.y

let masks_meet a b =
  match (Lazy.force a.occ, Lazy.force b.occ) with
  | Occ_full, _ | _, Occ_full -> true
  | Occ_mask ma, Occ_mask mb -> (
      let i_lo = Stdlib.max ma.i0 mb.i0 and j_lo = Stdlib.max ma.j0 mb.j0 in
      let i_hi = Stdlib.min (ma.i0 + ma.w - 1) (mb.i0 + mb.w - 1) in
      let j_hi = Stdlib.min (ma.j0 + ma.h - 1) (mb.j0 + mb.h - 1) in
      try
        for j = j_lo to j_hi do
          for i = i_lo to i_hi do
            if
              Bytes.get ma.bits (((j - ma.j0) * ma.w) + (i - ma.i0)) <> '\000'
              && Bytes.get mb.bits (((j - mb.j0) * mb.w) + (i - mb.i0)) <> '\000'
            then raise Exit
          done
        done;
        false
      with Exit -> true)

(* Lattice pitch: the world span over [cells], so prefilter selectivity
   scales with the deployment's geographic extent. *)
let hybrid ~cells ~world : Region_intf.packed =
  let lo, hi =
    match Region.bounding_box world with
    | Some box -> box
    | None -> invalid_arg "Region_backend.hybrid: empty world"
  in
  let span = Float.max (hi.Point.x -. lo.Point.x) (hi.Point.y -. lo.Point.y) in
  let cell_km = Float.max 1e-6 (span /. float_of_int cells) in
  (module struct
    type t = hybrid_piece list

    let name = "hybrid"

    let mk_piece poly =
      let plo, phi = Polygon.bounding_box poly in
      { poly; plo; phi; occ = lazy (occupancy_of ~cell_km poly plo phi) }

    let empty = []
    let is_empty t = t = []
    let of_region r = List.map mk_piece (Region.pieces r)
    let pieces t = List.map (fun p -> p.poly) t
    let to_region t = Region.of_polygons (pieces t)

    let inter a b =
      List.concat_map
        (fun pa ->
          List.concat_map
            (fun pb ->
              if not (boxes_meet pa pb) then begin
                Atomic.incr n_skipped_bbox;
                []
              end
              else if not (masks_meet pa pb) then begin
                Atomic.incr n_skipped_grid;
                []
              end
              else begin
                Atomic.incr n_exact_clips;
                List.map mk_piece (Clip.inter pa.poly pb.poly)
              end)
            b)
        a

    (* Subtrahend pieces are tested against each surviving fragment, not
       against the minuend's original extent: once [pb0] has eaten half a
       cell, the fragments' tighter boxes and masks let later [pb]s skip.
       A skipped fragment keeps its identity (and its forced mask). *)
    let diff a b =
      List.concat_map
        (fun pa ->
          List.fold_left
            (fun frags pb ->
              List.concat_map
                (fun f ->
                  if not (boxes_meet f pb) then begin
                    Atomic.incr n_skipped_bbox;
                    [ f ]
                  end
                  else if not (masks_meet f pb) then begin
                    Atomic.incr n_skipped_grid;
                    [ f ]
                  end
                  else begin
                    Atomic.incr n_exact_clips;
                    List.map mk_piece (Clip.diff f.poly pb.poly)
                  end)
                frags)
            [ pa ] b)
        a

    let union a b = a @ diff b a

    let area t = List.fold_left (fun acc p -> acc +. Polygon.area p.poly) 0.0 t

    let contains t (pt : Point.t) =
      List.exists
        (fun p ->
          pt.Point.x >= p.plo.Point.x
          && pt.Point.x <= p.phi.Point.x
          && pt.Point.y >= p.plo.Point.y
          && pt.Point.y <= p.phi.Point.y
          && Polygon.contains p.poly pt)
        t

    let centroid t = Region.centroid (to_region t)

    let bounding_box t =
      List.fold_left
        (fun acc p ->
          match acc with
          | None -> Some (p.plo, p.phi)
          | Some ((alo : Point.t), (ahi : Point.t)) ->
              Some
                ( Point.make (Float.min alo.Point.x p.plo.Point.x)
                    (Float.min alo.Point.y p.plo.Point.y),
                  Point.make (Float.max ahi.Point.x p.phi.Point.x)
                    (Float.max ahi.Point.y p.phi.Point.y) ))
        None t

    let vertex_count t = List.fold_left (fun acc p -> acc + Polygon.num_vertices p.poly) 0 t
    let simplify ~tolerance t = of_region (Region.simplify ~tolerance (to_region t))
  end)

(* ---- spec: the value that travels through configs and CLIs ---- *)

type spec = Exact | Hybrid of { cells : int }

let default_hybrid_cells = 96
let default = Exact

let instantiate spec ~world =
  match spec with
  | Exact -> exact
  | Hybrid { cells } -> hybrid ~cells ~world

let spec_to_string = function
  | Exact -> "exact"
  | Hybrid { cells } when cells = default_hybrid_cells -> "hybrid"
  | Hybrid { cells } -> Printf.sprintf "hybrid:%d" cells

let spec_of_string s =
  let base, param =
    match String.index_opt s ':' with
    | None -> (s, None)
    | Some i -> (String.sub s 0 i, Some (String.sub s (i + 1) (String.length s - i - 1)))
  in
  match base with
  | "exact" -> if param = None then Ok Exact else Error "backend \"exact\" takes no parameter"
  | "hybrid" -> (
      match param with
      | None -> Ok (Hybrid { cells = default_hybrid_cells })
      | Some p -> (
          match int_of_string_opt p with
          | Some v when v >= 4 && v <= 4096 -> Ok (Hybrid { cells = v })
          | _ ->
              Error
                (Printf.sprintf "invalid hybrid parameter %S (expected an integer in 4..4096)" p)))
  | _ -> Error (Printf.sprintf "unknown backend %S (expected exact or hybrid[:CELLS])" s)
