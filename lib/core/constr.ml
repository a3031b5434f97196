type shape =
  | Disk of { center : Geo.Point.t; radius_km : float }
  | Ring of { center : Geo.Point.t; r_inner_km : float; r_outer_km : float }
  | Rough of Geo.Region.t

type polarity = Positive | Negative

type t = { shape : shape; polarity : polarity; weight : float; source : string; epoch : int }

let check_weight w = if w < 0.0 then invalid_arg "Constr: negative weight"

let positive_disk ~center ~radius_km ~weight ~source =
  check_weight weight;
  if radius_km <= 0.0 then invalid_arg "Constr.positive_disk: radius must be positive";
  { shape = Disk { center; radius_km }; polarity = Positive; weight; source; epoch = 0 }

let ring ~center ~r_inner_km ~r_outer_km ~weight ~source =
  check_weight weight;
  if r_inner_km < 0.0 || r_outer_km <= r_inner_km then invalid_arg "Constr.ring: bad radii";
  if r_inner_km = 0.0 then positive_disk ~center ~radius_km:r_outer_km ~weight ~source
  else
    { shape = Ring { center; r_inner_km; r_outer_km }; polarity = Positive; weight; source; epoch = 0 }

let negative_disk ~center ~radius_km ~weight ~source =
  check_weight weight;
  if radius_km <= 0.0 then invalid_arg "Constr.negative_disk: radius must be positive";
  { shape = Disk { center; radius_km }; polarity = Negative; weight; source; epoch = 0 }

let positive_region region ~weight ~source =
  check_weight weight;
  { shape = Rough region; polarity = Positive; weight; source; epoch = 0 }

let negative_region region ~weight ~source =
  check_weight weight;
  { shape = Rough region; polarity = Negative; weight; source; epoch = 0 }

let with_epoch epoch c = { c with epoch }

let region_of_shape ?(segments = 64) = function
  | Disk { center; radius_km } -> Geo.Region.disk ~segments ~center ~radius:radius_km ()
  | Ring { center; r_inner_km; r_outer_km } ->
      Geo.Region.annulus ~segments ~center ~r_inner:r_inner_km ~r_outer:r_outer_km ()
  | Rough r -> r

let of_rtt ?(segments = 64) ?(negative_weight_factor = 1.0) ~calibration ~landmark_position
    ~adjusted_rtt_ms ~weight ~source () =
  ignore segments;
  if adjusted_rtt_ms < 0.0 then invalid_arg "Constr.of_rtt: negative RTT";
  let upper = Calibration.upper_km calibration adjusted_rtt_ms in
  let lower = Calibration.lower_km calibration adjusted_rtt_ms in
  match landmark_position with
  | `Point center ->
      if lower > 0.0 then begin
        if negative_weight_factor >= 1.0 then
          [ ring ~center ~r_inner_km:lower ~r_outer_km:upper ~weight ~source ]
        else
          (* Negative information is inherently riskier than positive (a
             single extra-inflated path voids the lower bound), so emit it
             as a separate, discounted constraint. *)
          [
            positive_disk ~center ~radius_km:upper ~weight ~source;
            negative_disk ~center ~radius_km:lower
              ~weight:(weight *. negative_weight_factor)
              ~source:(source ^ " (neg)");
          ]
      end
      else [ positive_disk ~center ~radius_km:upper ~weight ~source ]
  | `Region beta ->
      if Geo.Region.is_empty beta then []
      else begin
        (* Positive: anywhere within upper of SOME point of beta. *)
        let pos = Geo.Region.dilate beta upper in
        let constraints = [ positive_region pos ~weight ~source:(source ^ " (dilated)") ] in
        if lower > 0.0 then begin
          (* Negative: within lower of EVERY point of beta is excluded. *)
          let forbidden = Geo.Region.erode_to_common_disk beta lower in
          if Geo.Region.is_empty forbidden then constraints
          else
            negative_region forbidden ~weight ~source:(source ^ " (eroded)") :: constraints
        end
        else constraints
      end

let describe c =
  let polarity = match c.polarity with Positive -> "+" | Negative -> "-" in
  let shape =
    match c.shape with
    | Disk { radius_km; _ } -> Printf.sprintf "disk r=%.1fkm" radius_km
    | Ring { r_inner_km; r_outer_km; _ } -> Printf.sprintf "ring %.1f..%.1fkm" r_inner_km r_outer_km
    | Rough r -> Printf.sprintf "region %.0fkm2" (Geo.Region.area r)
  in
  Printf.sprintf "[%s %s w=%.3f %s]" polarity shape c.weight c.source

type classification = Cell_inside | Cell_outside | Straddles

let box_corners (lo, hi) =
  [|
    lo;
    Geo.Point.make hi.Geo.Point.x lo.Geo.Point.y;
    hi;
    Geo.Point.make lo.Geo.Point.x hi.Geo.Point.y;
  |]

(* Distance from a point to the nearest/farthest point of a box. *)
let box_min_dist (lo, hi) p =
  let dx = Float.max 0.0 (Float.max (lo.Geo.Point.x -. p.Geo.Point.x) (p.Geo.Point.x -. hi.Geo.Point.x)) in
  let dy = Float.max 0.0 (Float.max (lo.Geo.Point.y -. p.Geo.Point.y) (p.Geo.Point.y -. hi.Geo.Point.y)) in
  sqrt ((dx *. dx) +. (dy *. dy))

let box_max_dist box p =
  Array.fold_left (fun acc corner -> Float.max acc (Geo.Point.dist corner p)) 0.0 (box_corners box)

let classify_box shape box =
  match shape with
  | Disk { center; radius_km } ->
      if box_max_dist box center <= radius_km then Cell_inside
      else if box_min_dist box center > radius_km then Cell_outside
      else Straddles
  | Ring { center; r_inner_km; r_outer_km } ->
      let dmin = box_min_dist box center and dmax = box_max_dist box center in
      if dmin >= r_inner_km && dmax <= r_outer_km then Cell_inside
      else if dmax < r_inner_km || dmin > r_outer_km then Cell_outside
      else Straddles
  | Rough region -> (
      match Geo.Region.bounding_box region with
      | None -> Cell_outside
      | Some (rlo, rhi) ->
          let lo, hi = box in
          if
            rhi.Geo.Point.x < lo.Geo.Point.x || rlo.Geo.Point.x > hi.Geo.Point.x
            || rhi.Geo.Point.y < lo.Geo.Point.y || rlo.Geo.Point.y > hi.Geo.Point.y
          then Cell_outside
          else Straddles)
