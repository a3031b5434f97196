type t = {
  lo : Point.t;
  hi : Point.t;
  resolution : int;
  bits : Bytes.t; (* row-major, one byte per cell for simplicity *)
}

let same_geometry a b =
  a.resolution = b.resolution && Point.equal ~eps:0.0 a.lo b.lo && Point.equal ~eps:0.0 a.hi b.hi

let cell_size t =
  let n = float_of_int t.resolution in
  ((t.hi.Point.x -. t.lo.Point.x) /. n, (t.hi.Point.y -. t.lo.Point.y) /. n)

let create ~lo ~hi ~resolution pred =
  if resolution < 1 then invalid_arg "Grid_region.create: resolution must be >= 1";
  if hi.Point.x <= lo.Point.x || hi.Point.y <= lo.Point.y then
    invalid_arg "Grid_region.create: degenerate box";
  let t = { lo; hi; resolution; bits = Bytes.make (resolution * resolution) '\000' } in
  let dx, dy = cell_size t in
  for j = 0 to resolution - 1 do
    for i = 0 to resolution - 1 do
      let center =
        Point.make
          (lo.Point.x +. ((float_of_int i +. 0.5) *. dx))
          (lo.Point.y +. ((float_of_int j +. 0.5) *. dy))
      in
      if pred center then Bytes.set t.bits ((j * resolution) + i) '\001'
    done
  done;
  t

let of_region ~lo ~hi ~resolution region = create ~lo ~hi ~resolution (Region.contains region)

let zip op a b =
  if not (same_geometry a b) then invalid_arg "Grid_region: geometry mismatch";
  let bits = Bytes.copy a.bits in
  for k = 0 to Bytes.length bits - 1 do
    let va = Bytes.get a.bits k <> '\000' and vb = Bytes.get b.bits k <> '\000' in
    Bytes.set bits k (if op va vb then '\001' else '\000')
  done;
  { a with bits }

let inter a b = zip ( && ) a b
let union a b = zip ( || ) a b
let diff a b = zip (fun x y -> x && not y) a b

let count t =
  let n = ref 0 in
  Bytes.iter (fun c -> if c <> '\000' then incr n) t.bits;
  !n

let cell_area t =
  let dx, dy = cell_size t in
  dx *. dy

let area t = float_of_int (count t) *. cell_area t

let contains t p =
  let dx, dy = cell_size t in
  let i = int_of_float (Float.floor ((p.Point.x -. t.lo.Point.x) /. dx)) in
  let j = int_of_float (Float.floor ((p.Point.y -. t.lo.Point.y) /. dy)) in
  i >= 0 && i < t.resolution && j >= 0 && j < t.resolution
  && Bytes.get t.bits ((j * t.resolution) + i) <> '\000'

let fill_fraction t = float_of_int (count t) /. float_of_int (t.resolution * t.resolution)
