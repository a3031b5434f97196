(* Flat mutable vertex buffers for the clipping hot path.

   The Sutherland–Hodgman and Greiner–Hormann kernels used to build every
   intermediate ring as a consed list of boxed [Point.t] records.  At batch
   scale that allocation rate turns OCaml 5's minor collector into a
   stop-the-world barrier shared by every domain, so adding domains adds
   only GC pauses.  A [Vbuf.t] stores vertices as two unboxed float arrays
   and is reused across clip operations through a per-domain pool, so an
   entire halfplane-clip cascade allocates nothing until the final ring is
   materialized as a polygon.

   Each domain has its own free list ([Domain.DLS]), so batch worker
   domains never contend on one.  Systhreads of one domain do share it
   (the daemon clips on its batcher thread and its session thread), and
   the runtime may switch between them at any allocation, so the list
   head is an [Atomic] that [acquire] and [release] swing by
   compare-and-set. *)

type t = {
  mutable xs : float array;
  mutable ys : float array;
  mutable n : int;
}

let create capacity =
  let capacity = if capacity < 8 then 8 else capacity in
  { xs = Array.make capacity 0.0; ys = Array.make capacity 0.0; n = 0 }

let clear b = b.n <- 0
let length b = b.n

(* Grow to at least [cap], preserving the first [n] live vertices. *)
let reserve b cap =
  let old = Array.length b.xs in
  if cap > old then begin
    let cap' = Stdlib.max cap (2 * old) in
    let xs = Array.make cap' 0.0 and ys = Array.make cap' 0.0 in
    Array.blit b.xs 0 xs 0 b.n;
    Array.blit b.ys 0 ys 0 b.n;
    b.xs <- xs;
    b.ys <- ys
  end

let push b x y =
  if b.n >= Array.length b.xs then reserve b (b.n + 1);
  Array.unsafe_set b.xs b.n x;
  Array.unsafe_set b.ys b.n y;
  b.n <- b.n + 1

let load_points b (pts : Point.t array) =
  let n = Array.length pts in
  reserve b n;
  for i = 0 to n - 1 do
    let p = Array.unsafe_get pts i in
    Array.unsafe_set b.xs i p.Point.x;
    Array.unsafe_set b.ys i p.Point.y
  done;
  b.n <- n

let to_points b =
  Array.init b.n (fun i -> Point.make (Array.unsafe_get b.xs i) (Array.unsafe_get b.ys i))

(* ---- Per-domain buffer pool ---- *)

(* Every [release] conses a fresh cell, so a head that compares equal
   was not popped and pushed back in between: no ABA. *)
let pool : t list Atomic.t Domain.DLS.key = Domain.DLS.new_key (fun () -> Atomic.make [])

let rec pool_pop head =
  match Atomic.get head with
  | [] -> create 128
  | b :: rest as seen ->
      if Atomic.compare_and_set head seen rest then begin
        b.n <- 0;
        b
      end
      else pool_pop head

let rec pool_push head b =
  let seen = Atomic.get head in
  if not (Atomic.compare_and_set head seen (b :: seen)) then pool_push head b

let acquire () = pool_pop (Domain.DLS.get pool)
let release b = pool_push (Domain.DLS.get pool) b

let with_pair f =
  let a = acquire () in
  let b = acquire () in
  Fun.protect
    ~finally:(fun () ->
      release b;
      release a)
    (fun () -> f a b)

let with_one f =
  let a = acquire () in
  Fun.protect ~finally:(fun () -> release a) (fun () -> f a)
