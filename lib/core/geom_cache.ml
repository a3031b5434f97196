(* Memoized constraint-shape tessellation.

   Successive targets of one deployment re-tessellate nearly identical
   shapes: each landmark's annulus radii move only with the target RTT, so
   across a batch the same few thousand (radius, segments) combinations
   recur again and again.  Disk and annulus polygons are translation
   invariant, so the cache stores them centered at the origin — one entry
   serves every target projection — and translates per use.

   Radii are quantized to {!quantum_km} buckets so near-identical shapes
   share an entry.  The snap direction depends on the constraint polarity
   and always enlarges the satisfying side: a positive shape grows (outer
   radius up, inner down), a negative shape shrinks (radius down), so the
   quantized constraint can only be more conservative than the exact one,
   never exclude the truth.  Because the polygon is built *at* the
   quantized radius (a pure function of the key), results are independent
   of cache state and of which domain populated an entry first — the
   determinism guarantee of the batch engine rests on this.

   Thread safety and scaling: the cache is two-tier.  Each domain keeps a
   private [Domain.DLS] table it can read and write with no
   synchronization at all; behind it sits a shared mutex-guarded table
   that seeds new domains and deduplicates building work.  The hot path
   (steady-state batch, every radius bucket already seen) therefore takes
   no lock and touches no shared cache line — under 4+ domains the old
   single-mutex design made every tessellation lookup a line-bouncing
   rendezvous.  A miss tessellates outside the lock; when two domains race
   on a fresh key the loser's insert is dropped, which is harmless because
   both computed the same polygon. *)

type key = {
  kind : int; (* 0 = disk, 1 = ring *)
  grow : bool;
  segments : int;
  q_inner : int;
  q_outer : int;
}

(* Per-instance hit/miss tallies, sharded over domain-indexed atomic slots
   exactly like the telemetry counters so concurrent localizations do not
   bounce a shared counter line.  [stats] sums the shards. *)
let stat_shards = 8

type t = {
  id : int; (* key into the per-domain local tier *)
  lock : Mutex.t;
  table : (key, Geo.Polygon.t list) Hashtbl.t; (* shared tier *)
  hits : int Atomic.t array;
  misses : int Atomic.t array;
}

(* Telemetry mirrors of the per-context tallies, aggregated across every
   cache instance.  Lookup totals are deterministic (one per Disk/Ring
   tessellation request); the hit/miss split is not — it depends on which
   domain serviced which target and on shared-tier races — so those two
   are excluded from the cross-jobs determinism signature. *)
let c_lookups = Obs.Telemetry.Counter.make ~domain:"cache" "lookups"
let c_hits = Obs.Telemetry.Counter.make ~deterministic:false ~domain:"cache" "hits"
let c_misses = Obs.Telemetry.Counter.make ~deterministic:false ~domain:"cache" "misses"

let quantum_km = 0.25

(* Enough for every radius bucket a batch realistically touches; beyond it
   new shapes are still returned, just not retained.  The same bound caps
   each domain-local tier. *)
let max_entries = 8192

(* The local tier: per domain, a small map from cache instance id to that
   instance's private table.  Worker domains are short-lived (one batch),
   so their tiers die with them; the calling domain's map is capped at a
   handful of live contexts and recycled wholesale when it overflows
   (localizing against 9+ contexts round-robin from one domain is not a
   pattern we serve). *)
let max_local_contexts = 8

let local_tier : (int, (key, Geo.Polygon.t list) Hashtbl.t) Hashtbl.t Domain.DLS.key =
  Domain.DLS.new_key (fun () -> Hashtbl.create max_local_contexts)

let next_id = Atomic.make 0

let create () =
  {
    id = Atomic.fetch_and_add next_id 1;
    lock = Mutex.create ();
    table = Hashtbl.create 512;
    hits = Obs.Telemetry.padded_atomics stat_shards;
    misses = Obs.Telemetry.padded_atomics stat_shards;
  }

let sum_shards a = Array.fold_left (fun acc s -> acc + Atomic.get s) 0 a
let stats t = (sum_shards t.hits, sum_shards t.misses)

let shard_slot () = (Domain.self () :> int) land (stat_shards - 1)
let tally shards = Atomic.incr shards.(shard_slot ())

let bucket_up r = int_of_float (Float.ceil (r /. quantum_km))
let bucket_down r = int_of_float (Float.floor (r /. quantum_km))
let radius_of_bucket q = float_of_int q *. quantum_km

(* Origin-centered pieces for a key; pure function of the key. *)
let build key =
  let r_outer = radius_of_bucket key.q_outer in
  if key.kind = 0 then
    Geo.Region.pieces
      (Geo.Region.disk ~segments:key.segments ~center:Geo.Point.zero ~radius:r_outer ())
  else
    let r_inner = radius_of_bucket key.q_inner in
    Geo.Region.pieces
      (Geo.Region.annulus ~segments:key.segments ~center:Geo.Point.zero ~r_inner ~r_outer ())

let local_table t =
  let tier = Domain.DLS.get local_tier in
  match Hashtbl.find_opt tier t.id with
  | Some tbl -> tbl
  | None ->
      if Hashtbl.length tier >= max_local_contexts then Hashtbl.reset tier;
      let tbl = Hashtbl.create 256 in
      Hashtbl.add tier t.id tbl;
      tbl

let lookup t key =
  Obs.Telemetry.Counter.incr c_lookups;
  let ltab = local_table t in
  match Hashtbl.find_opt ltab key with
  | Some pieces ->
      (* Domain-private hit: no lock, no shared write of any kind. *)
      tally t.hits;
      Obs.Telemetry.Counter.incr c_hits;
      pieces
  | None -> (
      Mutex.lock t.lock;
      let shared = Hashtbl.find_opt t.table key in
      Mutex.unlock t.lock;
      match shared with
      | Some pieces ->
          (* Seed the local tier so this domain never comes back. *)
          if Hashtbl.length ltab < max_entries then Hashtbl.add ltab key pieces;
          tally t.hits;
          Obs.Telemetry.Counter.incr c_hits;
          pieces
      | None ->
          tally t.misses;
          Obs.Telemetry.Counter.incr c_misses;
          let pieces = build key in
          Mutex.lock t.lock;
          if Hashtbl.length t.table < max_entries && not (Hashtbl.mem t.table key) then
            Hashtbl.add t.table key pieces;
          Mutex.unlock t.lock;
          if Hashtbl.length ltab < max_entries then Hashtbl.add ltab key pieces;
          pieces)

let translate_to center pieces =
  Geo.Region.of_polygons (List.map (Geo.Polygon.translate center) pieces)

let region_for ?(segments = 64) t (constr : Constr.t) =
  let grow = constr.Constr.polarity = Constr.Positive in
  match constr.Constr.shape with
  | Constr.Rough r -> r
  | Constr.Disk { center; radius_km } ->
      let q_outer = if grow then bucket_up radius_km else bucket_down radius_km in
      if q_outer <= 0 then Geo.Region.empty
      else translate_to center (lookup t { kind = 0; grow; segments; q_inner = 0; q_outer })
  | Constr.Ring { center; r_inner_km; r_outer_km } ->
      let q_inner, q_outer =
        if grow then (bucket_down r_inner_km, bucket_up r_outer_km)
        else (bucket_up r_inner_km, bucket_down r_outer_km)
      in
      if q_outer <= 0 then Geo.Region.empty
      else if q_inner >= q_outer then
        (* Snapping degenerated the ring (radii less than a quantum apart);
           fall back to the exact shape rather than invent geometry. *)
        Constr.region_of_shape ~segments constr.Constr.shape
      else if q_inner <= 0 then
        translate_to center (lookup t { kind = 0; grow; segments; q_inner = 0; q_outer })
      else translate_to center (lookup t { kind = 1; grow; segments; q_inner; q_outer })
