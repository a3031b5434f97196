type cell = {
  region : Geo.Region.t;
  weight : float;
  bbox : Geo.Point.t * Geo.Point.t;
  area : float;
  approx : bool;
      (* Cap fusion over-approximates the fused tail by its bounding
         rectangle, which may overlap exact cells.  The flag (inherited by
         every fragment the cell later splits into) lets [solve] subtract
         that overlap from the reported region instead of paying a clipping
         pass on every fusion. *)
}

type config = {
  simplify_vertex_threshold : int;
  simplify_tolerance_km : float;
  harden : Harden.config option;
}

let default_config = { simplify_vertex_threshold = 140; simplify_tolerance_km = 2.0; harden = None }

type t = {
  config : config;
  cells : cell list;
  prune_bound : float option;
      (* [Some b] once [add_all_pruned] has dropped cells: no dropped
         cell's descendant in the complete fold weighs more than [b].
         Such an arrangement is final. *)
}

let c_constraints = Obs.Telemetry.Counter.make ~domain:"solver" "constraints_added"
let c_cells_split = Obs.Telemetry.Counter.make ~domain:"solver" "cells_split"
let c_cells_created = Obs.Telemetry.Counter.make ~domain:"solver" "cells_created"
let c_cells_dropped = Obs.Telemetry.Counter.make ~domain:"solver" "cells_dropped"
let c_cap_fusions = Obs.Telemetry.Counter.make ~domain:"solver" "cap_fusions"
let c_cells_fused = Obs.Telemetry.Counter.make ~domain:"solver" "cells_fused"
let c_solves = Obs.Telemetry.Counter.make ~domain:"solver" "solves"
let c_cells_selected = Obs.Telemetry.Counter.make ~domain:"solver" "cells_selected"
let c_cells_trimmed = Obs.Telemetry.Counter.make ~domain:"solver" "cells_trimmed"
let c_cells_pruned = Obs.Telemetry.Counter.make ~domain:"solver" "cells_pruned"
let c_prune_fallbacks = Obs.Telemetry.Counter.make ~domain:"solver" "prune_fallbacks"

(* Area flowing through cap fusion, km^2 rounded per event so the sums
   stay integer-associative (and therefore jobs-independent).  [before]
   is the exact tail area, [after] the bounding rectangle that replaces
   it; the gap is the over-approximation the estimate must pay for. *)
let c_fused_area_before =
  Obs.Telemetry.Counter.make ~domain:"solver" "fused_area_km2_before"

let c_fused_area_after =
  Obs.Telemetry.Counter.make ~domain:"solver" "fused_area_km2_after"

let vertex_count region =
  List.fold_left (fun acc p -> acc + Geo.Polygon.num_vertices p) 0 (Geo.Region.pieces region)

let mk_cell cfg ?(approx = false) region weight =
  (* Clipping cost grows with boundary complexity: every traversal scans
     both boundaries and tests each edge pair near the other boundary.
     Cells that have accumulated many arc vertices get gently simplified
     (the default 2 km boundary shift is far below geolocalization
     scales). *)
  let region =
    if vertex_count region > cfg.simplify_vertex_threshold then
      Geo.Region.simplify ~tolerance:cfg.simplify_tolerance_km region
    else region
  in
  match Geo.Region.bounding_box region with
  | None -> None
  | Some bbox ->
      let area = Geo.Region.area region in
      if area < 1e-6 then None else Some { region; weight; bbox; area; approx }

let create ?(config = default_config) ~world () =
  match mk_cell config world 0.0 with
  | Some c -> { config; cells = [ c ]; prune_bound = None }
  | None -> invalid_arg "Solver.create: empty world"

(* Fuse the lightest-smallest cells to respect the cap.  Fused cells keep
   the minimum weight of their members: under-promising is conservative.
   Fusion undershoots the cap by an eighth (hysteresis): fusing exactly to
   the cap would re-trigger the sort-and-fuse on almost every subsequent
   add. *)
let enforce_cap cfg max_cells cells =
  let n = List.length cells in
  if n <= max_cells then cells
  else begin
    let arr = Array.of_list cells in
    (* Sort descending by (weight, area): keep the head, fuse the tail. *)
    Array.sort
      (fun a b ->
        match compare b.weight a.weight with 0 -> compare b.area a.area | c -> c)
      arr;
    let target = Stdlib.max 2 (max_cells - (max_cells / 8)) in
    let keep = Array.sub arr 0 (target - 1) in
    let tail = Array.sub arr (target - 1) (n - target + 1) in
    (* Fuse the tail into its bounding rectangle rather than the exact
       union: the exact union would be a many-hundred-piece region that
       every subsequent constraint must clip against (quadratic blowup).
       The rectangle over-approximates the tail and may overlap the kept
       cells, so it is flagged [approx]: [solve] subtracts that overlap
       from the cells it actually selects, which costs one clipping pass
       per estimate instead of one per fusion.  The fused cell carries the
       tail's minimum weight, so the over-approximation can only make the
       final estimate more conservative, never exclude the truth. *)
    let lo_x = ref infinity and lo_y = ref infinity in
    let hi_x = ref neg_infinity and hi_y = ref neg_infinity in
    Array.iter
      (fun c ->
        let lo, hi = c.bbox in
        if lo.Geo.Point.x < !lo_x then lo_x := lo.Geo.Point.x;
        if lo.Geo.Point.y < !lo_y then lo_y := lo.Geo.Point.y;
        if hi.Geo.Point.x > !hi_x then hi_x := hi.Geo.Point.x;
        if hi.Geo.Point.y > !hi_y then hi_y := hi.Geo.Point.y)
      tail;
    let fused_weight = Array.fold_left (fun acc c -> Float.min acc c.weight) infinity tail in
    if Obs.Telemetry.is_enabled () then begin
      Obs.Telemetry.Counter.incr c_cap_fusions;
      Obs.Telemetry.Counter.add c_cells_fused (Array.length tail);
      let tail_area = Array.fold_left (fun acc c -> acc +. c.area) 0.0 tail in
      Obs.Telemetry.Counter.add c_fused_area_before (int_of_float (Float.round tail_area));
      let rect_area = (!hi_x -. !lo_x) *. (!hi_y -. !lo_y) in
      Obs.Telemetry.Counter.add c_fused_area_after (int_of_float (Float.round rect_area))
    end;
    let fused =
      match
        Geo.Polygon.rectangle
          (Geo.Point.make !lo_x !lo_y)
          (Geo.Point.make !hi_x !hi_y)
      with
      | rect -> mk_cell cfg ~approx:true (Geo.Region.of_polygon rect) fused_weight
      | exception Invalid_argument _ -> None
    in
    match fused with
    | Some fused -> fused :: Array.to_list keep
    | None -> Array.to_list keep
  end

let split_cell cfg constraint_region c =
  let inside = Geo.Region.inter c.region constraint_region in
  let outside = Geo.Region.diff c.region constraint_region in
  (mk_cell cfg ~approx:c.approx inside 0.0, mk_cell cfg ~approx:c.approx outside 0.0)

let default_tessellate (constr : Constr.t) = Constr.region_of_shape constr.Constr.shape

let add ?(max_cells = 384) ?(tessellate = default_tessellate) t (constr : Constr.t) =
  if Option.is_some t.prune_bound then invalid_arg "Solver.add: a pruned arrangement is final";
  Obs.Telemetry.with_span "solver.add" (fun () ->
      let { config; cells; _ } = t in
      let w = constr.Constr.weight in
      let lazy_region = lazy (tessellate constr) in
      let on_inside, on_outside =
        match constr.Constr.polarity with
        | Constr.Positive -> (w, 0.0)
        | Constr.Negative -> (0.0, w)
      in
      Obs.Telemetry.Counter.incr c_constraints;
      let audit = Obs.Telemetry.Audit.collecting () in
      let cells_before = if audit then List.length cells else 0 in
      let n_straddled = ref 0 and n_created = ref 0 and n_dropped = ref 0 in
      let next =
        List.concat_map
          (fun c ->
            match Constr.classify_box constr.Constr.shape c.bbox with
            | Constr.Cell_inside -> [ { c with weight = c.weight +. on_inside } ]
            | Constr.Cell_outside -> [ { c with weight = c.weight +. on_outside } ]
            | Constr.Straddles -> (
                incr n_straddled;
                let inside, outside = split_cell config (Lazy.force lazy_region) c in
                match (inside, outside) with
                | None, None ->
                    incr n_dropped;
                    []
                | Some i, None -> [ { i with weight = c.weight +. on_inside } ]
                | None, Some o -> [ { o with weight = c.weight +. on_outside } ]
                | Some i, Some o ->
                    incr n_created;
                    [
                      { i with weight = c.weight +. on_inside };
                      { o with weight = c.weight +. on_outside };
                    ]))
          cells
      in
      Obs.Telemetry.Counter.add c_cells_split !n_straddled;
      Obs.Telemetry.Counter.add c_cells_created !n_created;
      Obs.Telemetry.Counter.add c_cells_dropped !n_dropped;
      if audit then
        Obs.Telemetry.Audit.record
          {
            Obs.Telemetry.Audit.source = constr.Constr.source;
            weight = w;
            polarity =
              (match constr.Constr.polarity with
              | Constr.Positive -> "positive"
              | Constr.Negative -> "negative");
            cells_before;
            cells_after = List.length next;
            splits = !n_straddled;
            dropped = !n_dropped;
            shrank = !n_straddled > 0 || !n_dropped > 0;
          };
      { config; cells = enforce_cap config max_cells next; prune_bound = None })

let add_all ?max_cells ?tessellate t constraints =
  List.fold_left (fun acc c -> add ?max_cells ?tessellate acc c) t constraints

let cell_count t = List.length t.cells
let max_weight t = List.fold_left (fun acc c -> Float.max acc c.weight) neg_infinity t.cells

let sorted_cells cells =
  List.sort
    (fun a b -> match compare b.weight a.weight with 0 -> compare b.area a.area | c -> c)
    cells

let cells t = List.map (fun c -> (c.region, c.weight)) (sorted_cells t.cells)

(* The selection rule of [solve], shared with the pruning certificate.
   Returns the top cell, the selected cells heaviest first, and how many
   band cells the consensus trim dropped. *)
let select config ~area_threshold_km2 ~weight_band cells =
  match sorted_cells cells with
  | [] -> invalid_arg "Solver.solve: empty arrangement"
  | first :: _ as sorted ->
      (* Cells within [weight_band] of the top weight are near-optimal
         under a few violated constraints and are always included; beyond
         the band, cells are added only until the area threshold is met. *)
      let band_floor = weight_band *. first.weight in
      (* Hardened consensus trim: a coalition's fake region can climb to
         within the weight band of the truth, but it sits far from the
         top-weight cell.  Band cells beyond the trim radius are dropped
         before they can ride the band into the estimate.  The top cell
         itself is at distance zero, so at least one cell survives. *)
      let trimmed = ref 0 in
      let trim =
        match config.harden with
        | None -> fun _ -> false
        | Some h ->
            let top_centroid = Geo.Region.centroid first.region in
            fun c ->
              let far =
                Geo.Point.dist (Geo.Region.centroid c.region) top_centroid > h.Harden.trim_band_km
              in
              if far then incr trimmed;
              far
      in
      let rec take acc acc_area = function
        | [] -> List.rev acc
        | c :: rest ->
            if c.weight >= band_floor -. 1e-9 then
              if trim c then take acc acc_area rest else take (c :: acc) (acc_area +. c.area) rest
            else if acc <> [] && acc_area >= area_threshold_km2 then List.rev acc
            else take (c :: acc) (acc_area +. c.area) rest
      in
      let selected = take [] 0.0 sorted in
      (first, selected, !trimmed)

(* The pruning certificate.  Every cell missing from a pruned arrangement
   weighs at most [bound].  If no such cell is a band cell, and the
   selected cells heavier than [bound] already cover the threshold, then
   [take] over the complete arrangement stops before it reaches a missing
   cell, and selects exactly what it selects here.  The heavy cells are a
   prefix of [selected], so their area sums in [take]'s own order. *)
let certified ~area_threshold_km2 ~weight_band ~bound (first : cell) selected =
  let heavy = List.filter (fun (c : cell) -> c.weight > bound) selected in
  bound < (weight_band *. first.weight) -. 1e-9
  && heavy <> []
  && List.fold_left (fun acc (c : cell) -> acc +. c.area) 0.0 heavy >= area_threshold_km2

(* The lighter of the band floor and L, the weight at which the heaviest
   exact cells already cover the threshold.  A cell that ends below both
   is neither a band cell nor reached by the fill.  Approximate cells may
   overlap exact ones, so their area does not count toward L. *)
let selection_cut ~area_threshold_km2 ~weight_band cells =
  match sorted_cells cells with
  | [] -> neg_infinity
  | first :: _ as sorted ->
      let rec cover acc = function
        | [] -> neg_infinity
        | c :: rest ->
            if c.approx then cover acc rest
            else
              let acc = acc +. c.area in
              if acc >= area_threshold_km2 then c.weight else cover acc rest
      in
      Float.min (cover 0.0 sorted) (weight_band *. first.weight)

let add_all_pruned ?max_cells ?tessellate ~area_threshold_km2 ~weight_band t constraints =
  (* [rest] is the weight of the constraints after each one.  Weights are
     non-negative, so no point gains more than [rest] from there on. *)
  let _, rests =
    List.fold_right
      (fun (c : Constr.t) (r, acc) -> (r +. c.Constr.weight, r :: acc))
      constraints (0.0, [])
  in
  let pass () =
    List.fold_left2
      (fun (t, bound, pruned) c rest ->
        let p = add ?max_cells ?tessellate t c in
        let cut = selection_cut ~area_threshold_km2 ~weight_band p.cells in
        (* The 1e-9 is [take]'s band slack: it absorbs the rounding gap
           between [rest] and a descendant's own sum. *)
        let kept, dropped =
          List.partition (fun (c : cell) -> c.weight +. rest +. 1e-9 >= cut) p.cells
        in
        if dropped = [] then (p, bound, pruned)
        else
          let bound =
            List.fold_left
              (fun b (c : cell) -> Float.max b (c.weight +. rest +. 1e-9))
              bound dropped
          in
          let n = List.length dropped in
          Obs.Telemetry.Counter.add c_cells_pruned n;
          ({ p with cells = kept }, bound, pruned + n))
      (t, neg_infinity, 0) constraints rests
  in
  (* The discarded pass of a fallback must not reach the audit log: its
     entries are held back until the certificate holds. *)
  let (folded, bound, pruned), entries =
    if Obs.Telemetry.Audit.collecting () then Obs.Telemetry.Audit.collect pass else (pass (), [])
  in
  let result =
    if pruned = 0 then Some folded
    else
      let first, selected, _ = select folded.config ~area_threshold_km2 ~weight_band folded.cells in
      if certified ~area_threshold_km2 ~weight_band ~bound first selected then
        Some { folded with prune_bound = Some bound }
      else None
  in
  match result with
  | Some t ->
      List.iter Obs.Telemetry.Audit.record entries;
      t
  | None ->
      Obs.Telemetry.Counter.incr c_prune_fallbacks;
      add_all ?max_cells ?tessellate t constraints

type estimate = {
  region : Geo.Region.t;
  weight : float;
  point : Geo.Point.t;
  area_km2 : float;
  cells_used : int;
}

let solve ?(area_threshold_km2 = 5000.0) ?(weight_band = 1.0) t =
  Obs.Telemetry.with_span "solver.solve" @@ fun () ->
  let first, selected, trimmed = select t.config ~area_threshold_km2 ~weight_band t.cells in
  (match t.prune_bound with
  | Some bound when not (certified ~area_threshold_km2 ~weight_band ~bound first selected) ->
      invalid_arg "Solver.solve: these settings break the pruned arrangement's certificate"
  | _ -> ());
  let used = List.length selected in
  Obs.Telemetry.Counter.add c_cells_trimmed trimmed;
  Obs.Telemetry.Counter.incr c_solves;
  Obs.Telemetry.Counter.add c_cells_selected used;
  (* Exact cells are disjoint by construction, so their union is
     concatenation.  Approximate cells (cap-fusion rectangles and their
     fragments) may overlap the exact ones, so each is clipped against
     the other selected cells before it joins the region — otherwise
     [area_km2] and the reported region would double-count the
     overlap.  Only selected cells pay this; a bbox test skips the
     pairs that cannot meet. *)
  let exact_sel, approx_sel = List.partition (fun c -> not c.approx) selected in
  let boxes_meet (alo, ahi) (blo, bhi) =
    alo.Geo.Point.x < bhi.Geo.Point.x
    && ahi.Geo.Point.x > blo.Geo.Point.x
    && alo.Geo.Point.y < bhi.Geo.Point.y
    && ahi.Geo.Point.y > blo.Geo.Point.y
  in
  let approx_regions =
    List.fold_left
      (fun clipped a ->
        let r =
          List.fold_left
            (fun acc e ->
              if Geo.Region.is_empty acc || not (boxes_meet a.bbox e.bbox) then acc
              else Geo.Region.diff acc e.region)
            a.region exact_sel
        in
        (* Earlier approximate cells were already clipped; subtract
           them too so approx/approx overlap is not counted twice. *)
        let r =
          List.fold_left
            (fun acc prev -> if Geo.Region.is_empty acc then acc else Geo.Region.diff acc prev)
            r clipped
        in
        r :: clipped)
      [] approx_sel
  in
  let region =
    Geo.Region.of_polygons
      (List.concat_map (fun (c : cell) -> Geo.Region.pieces c.region) exact_sel
      @ List.concat_map Geo.Region.pieces approx_regions)
  in
  (* The point estimate comes from the top-weight tier only: averaging
     over the whole reported region would let large low-confidence
     cells drag the point away from where the evidence concentrates. *)
  let top_tier =
    List.filter (fun (c : cell) -> c.weight >= (0.995 *. first.weight) -. 1e-9) selected
  in
  let top_tier = if top_tier = [] then [ first ] else top_tier in
  let total_mass =
    List.fold_left (fun acc (c : cell) -> acc +. ((c.weight +. 1e-9) *. c.area)) 0.0 top_tier
  in
  let point =
    List.fold_left
      (fun acc (c : cell) ->
        let m = (c.weight +. 1e-9) *. c.area /. total_mass in
        Geo.Point.add acc (Geo.Point.scale m (Geo.Region.centroid c.region)))
      Geo.Point.zero top_tier
  in
  {
    region;
    weight = first.weight;
    point;
    area_km2 = Geo.Region.area region;
    cells_used = used;
  }

(* ---- Persistent per-target sessions (streaming re-localization) ---- *)

let c_session_folds = Obs.Telemetry.Counter.make ~domain:"session" "folds"
let c_session_retires = Obs.Telemetry.Counter.make ~domain:"session" "retires"
let c_session_fold_constraints = Obs.Telemetry.Counter.make ~domain:"session" "fold_constraints"

let c_session_retired_constraints =
  Obs.Telemetry.Counter.make ~domain:"session" "retired_constraints"

module Session = struct
  type solver = t

  (* [base] is the pristine world arrangement (zero constraints); [current]
     is [base] with every entry of [log_rev] folded in, oldest first.  The
     underlying solver is persistent, so retiring evidence is a rebuild:
     [add_all base surviving] — exactly the batch recompute the parity
     tests compare against, which is what makes prefix parity hold by
     construction rather than by delicate bookkeeping. *)
  type nonrec t = {
    base : solver;
    s_max_cells : int option;
    s_tessellate : (Constr.t -> Geo.Region.t) option;
    s_area_threshold_km2 : float option;
    s_weight_band : float option;
    mutable current : solver;
    mutable log_rev : Constr.t list;
    mutable live_constraints : int;
    mutable n_folds : int;
    mutable n_retires : int;
  }

  let create ?max_cells ?tessellate ?area_threshold_km2 ?weight_band ~log base =
    {
      base;
      s_max_cells = max_cells;
      s_tessellate = tessellate;
      s_area_threshold_km2 = area_threshold_km2;
      s_weight_band = weight_band;
      current = add_all ?max_cells ?tessellate base log;
      log_rev = List.rev log;
      live_constraints = List.length log;
      n_folds = 0;
      n_retires = 0;
    }

  let add_all' s t cs = add_all ?max_cells:s.s_max_cells ?tessellate:s.s_tessellate t cs

  let estimate s =
    solve ?area_threshold_km2:s.s_area_threshold_km2 ?weight_band:s.s_weight_band s.current

  let fold s cs =
    Obs.Telemetry.with_span "session.fold" @@ fun () ->
    s.current <- add_all' s s.current cs;
    s.log_rev <- List.rev_append cs s.log_rev;
    s.live_constraints <- s.live_constraints + List.length cs;
    s.n_folds <- s.n_folds + 1;
    Obs.Telemetry.Counter.incr c_session_folds;
    Obs.Telemetry.Counter.add c_session_fold_constraints (List.length cs);
    estimate s

  (* Correct-first decay: drop every logged constraint at or below
     [upto_epoch] and re-solve from the surviving suffix in its original
     fold order.  Lazily widening the existing arrangement instead is a
     possible optimization, but it would forfeit the bit-parity rail. *)
  let retire s ~upto_epoch =
    Obs.Telemetry.with_span "session.retire" @@ fun () ->
    let surviving =
      List.filter (fun (c : Constr.t) -> c.Constr.epoch > upto_epoch) (List.rev s.log_rev)
    in
    let n_surviving = List.length surviving in
    let retired = s.live_constraints - n_surviving in
    s.current <- add_all' s s.base surviving;
    s.log_rev <- List.rev surviving;
    s.live_constraints <- n_surviving;
    s.n_retires <- s.n_retires + 1;
    Obs.Telemetry.Counter.incr c_session_retires;
    Obs.Telemetry.Counter.add c_session_retired_constraints retired;
    estimate s

  let log s = List.rev s.log_rev
  let live_constraints s = s.live_constraints
  let folds s = s.n_folds
  let retires s = s.n_retires
  let cells_live s = cell_count s.current
end
