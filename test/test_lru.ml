(* qcheck property suite for the serving layer's LRU result cache,
   checked against an executable model (an MRU-first association list):

   - capacity is never exceeded, and contents match the model exactly
     after any operation sequence (so most-recently-used entries survive
     eviction), and every add reports the model's least-recently-used
     key as its victim — what the daemon's session store counts and
     forgets;
   - hits + misses + evictions reconcile with both the per-instance
     stats and, for the sharded result cache only, the serve-domain
     telemetry counters;
   - a cached localization replayed through the cache equals a freshly
     computed one. *)

module Lru = Octant_serve.Lru

(* ---- executable model ---- *)

type model = { mutable entries : (int * int) list (* MRU first *) }

let model_find m cap k =
  if cap = 0 then None
  else
    match List.assoc_opt k m.entries with
    | None -> None
    | Some v ->
        m.entries <- (k, v) :: List.remove_assoc k m.entries;
        Some v

let model_add m cap k v =
  if cap > 0 then begin
    let entries = (k, v) :: List.remove_assoc k m.entries in
    m.entries <-
      (if List.length entries > cap then List.filteri (fun i _ -> i < cap) entries else entries)
  end

(* Eviction count for reconciliation: replay counting.  Each add also
   records its victim, the model's least-recently-used (last) entry. *)
let run_model cap ops =
  let m = { entries = [] } in
  let hits = ref 0 and misses = ref 0 and evictions = ref 0 and victims = ref [] in
  List.iter
    (fun op ->
      match op with
      | `Find k -> (
          if cap > 0 then
            match model_find m cap k with Some _ -> incr hits | None -> incr misses)
      | `Add (k, v) ->
          let victim =
            if cap > 0 && (not (List.mem_assoc k m.entries)) && List.length m.entries >= cap
            then begin
              incr evictions;
              Some (fst (List.nth m.entries (cap - 1)))
            end
            else None
          in
          victims := victim :: !victims;
          model_add m cap k v)
    ops;
  (m, !hits, !misses, !evictions, List.rev !victims)

(* The instance, and the victim each add reported. *)
let run_real cap ops =
  let c = Lru.create ~capacity:cap () in
  let victims =
    List.filter_map
      (fun op ->
        match op with
        | `Find k ->
            ignore (Lru.find c k);
            None
        | `Add (k, v) -> Some (Lru.add c k v))
      ops
  in
  (c, victims)

let ops_gen =
  QCheck.Gen.(
    list_size (int_range 0 200)
      (frequency
         [
           (2, map (fun k -> `Find k) (int_range 0 9));
           (3, map2 (fun k v -> `Add (k, v)) (int_range 0 9) (int_range 0 1000));
         ]))

let pp_op = function
  | `Find k -> Printf.sprintf "F%d" k
  | `Add (k, v) -> Printf.sprintf "A%d=%d" k v

let arb_case =
  QCheck.make
    ~print:(fun (cap, ops) ->
      Printf.sprintf "cap=%d [%s]" cap (String.concat ";" (List.map pp_op ops)))
    QCheck.Gen.(pair (int_range 0 5) ops_gen)

let prop_model_equivalence =
  QCheck.Test.make ~count:300 ~name:"lru agrees with MRU-list model" arb_case
    (fun (cap, ops) ->
      let c, victims = run_real cap ops in
      let m, hits, misses, evictions, model_victims = run_model cap ops in
      if victims <> model_victims then
        QCheck.Test.fail_reportf "victims [%s] but model [%s]"
          (String.concat ";" (List.map (function Some k -> string_of_int k | None -> "-") victims))
          (String.concat ";"
             (List.map (function Some k -> string_of_int k | None -> "-") model_victims));
      let s = Lru.stats c in
      if Lru.length c > cap then QCheck.Test.fail_reportf "capacity exceeded: %d > %d" (Lru.length c) cap;
      if s.Lru.size <> List.length m.entries then
        QCheck.Test.fail_reportf "size %d, model %d" s.Lru.size (List.length m.entries);
      List.iter
        (fun (k, v) ->
          match Lru.find c k with
          | Some v' when v' = v -> ()
          | Some v' -> QCheck.Test.fail_reportf "key %d: value %d, model %d" k v' v
          | None -> QCheck.Test.fail_reportf "key %d present in model, absent in cache" k)
        m.entries;
      for k = 0 to 9 do
        if (not (List.mem_assoc k m.entries)) && Lru.mem c k then
          QCheck.Test.fail_reportf "key %d evicted in model, still cached" k
      done;
      if (s.Lru.hits, s.Lru.misses, s.Lru.evictions) <> (hits, misses, evictions) then
        QCheck.Test.fail_reportf "stats (%d,%d,%d) but model (%d,%d,%d)" s.Lru.hits
          s.Lru.misses s.Lru.evictions hits misses evictions;
      true)

let prop_counts_reconcile =
  QCheck.Test.make ~count:100 ~name:"finds and adds reconcile with stats" arb_case
    (fun (cap, ops) ->
      let c, _ = run_real cap ops in
      let s = Lru.stats c in
      let finds =
        List.length (List.filter (function `Find _ -> true | _ -> false) ops)
      in
      (* Every find is exactly a hit or a miss (unless the cache is
         disabled, which counts nothing); evictions never exceed adds. *)
      if cap = 0 then s.Lru.hits = 0 && s.Lru.misses = 0 && s.Lru.evictions = 0
      else
        s.Lru.hits + s.Lru.misses = finds
        && s.Lru.evictions
           <= List.length (List.filter (function `Add _ -> true | _ -> false) ops))

(* The telemetry mirror: the serve-domain counters advance by exactly the
   result cache's own deltas while collection is enabled, and a plain
   instance (the daemon's session store) leaves them alone — session
   lookups are not cache traffic. *)
let test_telemetry_mirror () =
  Octant.Telemetry.reset ();
  Octant.Telemetry.enable ();
  Fun.protect
    ~finally:(fun () ->
      Octant.Telemetry.disable ();
      Octant.Telemetry.reset ())
    (fun () ->
      let read () =
        ( Octant.Telemetry.Counter.value Octant_serve.Metrics.cache_hits,
          Octant.Telemetry.Counter.value Octant_serve.Metrics.cache_misses,
          Octant.Telemetry.Counter.value Octant_serve.Metrics.cache_evictions )
      in
      let ops =
        [ `Add (1, 10); `Find 1; `Find 2; `Add (2, 20); `Add (3, 30); `Find 1; `Add (4, 40) ]
      in
      let before = read () in
      ignore (run_real 2 ops);
      Alcotest.(check bool) "plain instances count no cache traffic" true (read () = before);
      let c = Lru.Sharded.create ~shards:1 ~capacity:2 () in
      List.iter
        (function
          | `Find k -> ignore (Lru.Sharded.find c k) | `Add (k, v) -> Lru.Sharded.add c k v)
        ops;
      let s = Lru.Sharded.stats c in
      let b0, b1, b2 = before in
      Alcotest.(check int) "hits mirrored"
        (s.Lru.hits)
        (Octant.Telemetry.Counter.value Octant_serve.Metrics.cache_hits - b0);
      Alcotest.(check int) "misses mirrored"
        (s.Lru.misses)
        (Octant.Telemetry.Counter.value Octant_serve.Metrics.cache_misses - b1);
      Alcotest.(check int) "evictions mirrored"
        (s.Lru.evictions)
        (Octant.Telemetry.Counter.value Octant_serve.Metrics.cache_evictions - b2))

(* A cached localization result replays bit-identically. *)
let test_cached_equals_fresh () =
  let rng = Stats.Rng.create 4417 in
  let landmarks =
    Array.init 7 (fun i ->
        {
          Octant.Pipeline.lm_key = i;
          lm_position =
            Geo.Geodesy.coord
              ~lat:(Stats.Rng.uniform rng 34.0 46.0)
              ~lon:(Stats.Rng.uniform rng (-115.0) (-80.0));
        })
  in
  let rtt a b =
    let prop = Geo.Geodesy.distance_to_min_rtt_ms (Geo.Geodesy.distance_km a b) in
    (1.4 *. prop) +. 2.0 +. Stats.Rng.uniform rng 0.0 2.0
  in
  let inter = Array.make_matrix 7 7 0.0 in
  for i = 0 to 6 do
    for j = i + 1 to 6 do
      let v =
        rtt landmarks.(i).Octant.Pipeline.lm_position landmarks.(j).Octant.Pipeline.lm_position
      in
      inter.(i).(j) <- v;
      inter.(j).(i) <- v
    done
  done;
  let truth = Geo.Geodesy.coord ~lat:39.0 ~lon:(-95.0) in
  let obs =
    Octant.Pipeline.observations_of_rtts
      (Array.map (fun l -> rtt l.Octant.Pipeline.lm_position truth) landmarks)
  in
  let ctx = Octant.Pipeline.prepare ~landmarks ~inter_landmark_rtt_ms:inter () in
  let key = Octant_serve.Protocol.cache_key obs in
  let cache = Lru.create ~capacity:8 () in
  let fresh = Octant.Pipeline.localize ctx obs in
  ignore (Lru.add cache key fresh);
  match Lru.find cache key with
  | None -> Alcotest.fail "cached estimate not found"
  | Some replayed ->
      let again = Octant.Pipeline.localize ctx obs in
      Alcotest.(check bool) "replay is the stored estimate" true (replayed == fresh);
      Alcotest.(check (float 0.0)) "lat" again.Octant.Estimate.point.Geo.Geodesy.lat
        replayed.Octant.Estimate.point.Geo.Geodesy.lat;
      Alcotest.(check (float 0.0)) "lon" again.Octant.Estimate.point.Geo.Geodesy.lon
        replayed.Octant.Estimate.point.Geo.Geodesy.lon;
      Alcotest.(check (float 0.0)) "area" again.Octant.Estimate.area_km2
        replayed.Octant.Estimate.area_km2

(* ---- sharded variant ---- *)

(* The shard striping must be invisible to single-threaded semantics:
   adds are found again, repeats hit, distinct keys miss once each, and
   the summed stats reconcile exactly. *)
let test_sharded_hit_rate () =
  let c = Lru.Sharded.create ~shards:4 ~capacity:64 () in
  Alcotest.(check int) "shard count" 4 (Lru.Sharded.shard_count c);
  Alcotest.(check int) "total capacity" 64 (Lru.Sharded.capacity c);
  let n = 48 in
  for k = 0 to n - 1 do
    Lru.Sharded.add c k (k * 10)
  done;
  (* Eviction is per shard, so a skewed hash may evict below the total
     capacity — but adds and evictions must still reconcile exactly. *)
  let resident = Lru.Sharded.length c in
  let s0 = Lru.Sharded.stats c in
  Alcotest.(check int) "adds minus evictions are resident" (n - s0.Lru.evictions) resident;
  let hits = ref 0 in
  for k = 0 to n - 1 do
    match Lru.Sharded.find c k with
    | Some v when v = k * 10 -> incr hits
    | Some v -> Alcotest.failf "key %d: got %d" k v
    | None -> () (* evicted from its shard *)
  done;
  Alcotest.(check int) "every resident key hits" resident !hits;
  for k = n to n + 15 do
    Alcotest.(check bool) "absent key misses" true (Lru.Sharded.find c k = None)
  done;
  let s = Lru.Sharded.stats c in
  Alcotest.(check int) "hits summed" !hits s.Lru.hits;
  Alcotest.(check int) "misses summed" (n - !hits + 16) s.Lru.misses;
  (* Resident entries under capacity pressure: keep touching one hot key
     while flooding; the hot key's shard must keep it (per-shard LRU). *)
  let hot = 3 in
  for k = 1000 to 1300 do
    ignore (Lru.Sharded.find c hot);
    Lru.Sharded.add c k k
  done;
  Alcotest.(check bool) "hot key survives the flood" true (Lru.Sharded.mem c hot);
  if Lru.Sharded.length c > Lru.Sharded.capacity c then
    Alcotest.failf "capacity exceeded: %d > %d" (Lru.Sharded.length c)
      (Lru.Sharded.capacity c)

let test_sharded_shapes () =
  (* Shard count rounds down to a power of two and never exceeds the
     capacity; the requested capacity is distributed exactly. *)
  let c = Lru.Sharded.create ~shards:6 ~capacity:10 () in
  Alcotest.(check int) "6 rounds down to 4 shards" 4 (Lru.Sharded.shard_count c);
  Alcotest.(check int) "capacity preserved" 10 (Lru.Sharded.capacity c);
  let tiny = Lru.Sharded.create ~shards:8 ~capacity:3 () in
  Alcotest.(check int) "shards clamped to capacity" 2 (Lru.Sharded.shard_count tiny);
  Alcotest.(check int) "tiny capacity preserved" 3 (Lru.Sharded.capacity tiny);
  let off = Lru.Sharded.create ~shards:8 ~capacity:0 () in
  Lru.Sharded.add off 1 1;
  Alcotest.(check bool) "capacity 0 disables" true (Lru.Sharded.find off 1 = None);
  let s = Lru.Sharded.stats off in
  Alcotest.(check int) "disabled cache counts nothing" 0 (s.Lru.hits + s.Lru.misses)

(* ---- generation tags: the compute/invalidate race ---- *)

(* The streamed-update rail: a reply computed from pre-update state must
   not land in the cache after the update invalidated its key.  [add_at]
   carries the generation read before the compute; [invalidate_key] bumps
   it, so the stale insert is dropped while a current-generation insert
   still lands. *)
let test_invalidate_generation () =
  let c = Lru.create ~capacity:8 () in
  let g0 = Lru.generation c in
  ignore (Lru.add c 1 100);
  Alcotest.(check int) "plain adds leave the generation alone" g0 (Lru.generation c);
  Alcotest.(check bool) "invalidating a resident key removes it" true
    (Lru.invalidate_key c 1);
  Alcotest.(check bool) "entry gone" true (Lru.find c 1 = None);
  Alcotest.(check bool) "generation bumped" true (Lru.generation c > g0);
  (* Stale insert: gen read before the invalidation must be dropped. *)
  ignore (Lru.add_at c ~gen:g0 1 111);
  Alcotest.(check bool) "stale add_at is dropped" true (Lru.find c 1 = None);
  (* Current insert: gen read after the invalidation lands. *)
  let g1 = Lru.generation c in
  ignore (Lru.add_at c ~gen:g1 1 222);
  Alcotest.(check (option int)) "current add_at lands" (Some 222) (Lru.find c 1);
  (* Absent key: nothing removed, but the generation still bumps (the
     in-flight compute for that key must still be dropped) and the
     invalidation is still counted. *)
  let before = (Lru.stats c).Lru.invalidations in
  Alcotest.(check bool) "absent key removes nothing" false (Lru.invalidate_key c 99);
  Alcotest.(check bool) "absent key still bumps" true (Lru.generation c > g1);
  Alcotest.(check int) "absent key still counts" (before + 1)
    (Lru.stats c).Lru.invalidations;
  (* Disabled cache: everything is a no-op at generation 0. *)
  let off = Lru.create ~capacity:0 () in
  Alcotest.(check int) "disabled cache sits at generation 0" 0 (Lru.generation off);
  Alcotest.(check bool) "disabled invalidate is a no-op" false (Lru.invalidate_key off 1);
  ignore (Lru.add_at off ~gen:0 1 1);
  Alcotest.(check bool) "disabled add_at stays empty" true (Lru.find off 1 = None);
  Alcotest.(check int) "disabled cache counts no invalidations" 0
    (Lru.stats off).Lru.invalidations

(* Generations are per shard: invalidating one key must only drop
   in-flight inserts that hash to the same shard.  Record every key's
   generation first, then check each add_at lands iff its own shard's
   tag is unchanged — true under any hash placement. *)
let test_sharded_invalidate_generation () =
  let c = Lru.Sharded.create ~shards:8 ~capacity:64 () in
  let keys = List.init 10 Fun.id in
  List.iter (fun k -> Lru.Sharded.add c k k) keys;
  let gens = Array.init 10 (fun k -> Lru.Sharded.generation c k) in
  Alcotest.(check bool) "invalidate removes key 5" true (Lru.Sharded.invalidate_key c 5);
  List.iter
    (fun k ->
      if k <> 5 then begin
        Lru.Sharded.add_at c ~gen:gens.(k) k (k + 100);
        let landed = Lru.Sharded.find c k = Some (k + 100) in
        let same_gen = Lru.Sharded.generation c k = gens.(k) in
        Alcotest.(check bool)
          (Printf.sprintf "key %d add_at lands iff its shard was untouched" k)
          same_gen landed
      end)
    keys;
  (* Key 5's own shard was bumped: its stale insert must be dropped. *)
  Lru.Sharded.add_at c ~gen:gens.(5) 5 105;
  Alcotest.(check bool) "key 5's stale add_at is dropped" true
    (Lru.Sharded.find c 5 = None);
  let g5 = Lru.Sharded.generation c 5 in
  Lru.Sharded.add_at c ~gen:g5 5 505;
  Alcotest.(check (option int)) "key 5's fresh add_at lands" (Some 505)
    (Lru.Sharded.find c 5);
  let s = Lru.Sharded.stats c in
  Alcotest.(check int) "one invalidation summed across shards" 1 s.Lru.invalidations

let suite =
  [
    ( "lru",
      [
        QCheck_alcotest.to_alcotest prop_model_equivalence;
        QCheck_alcotest.to_alcotest prop_counts_reconcile;
        Alcotest.test_case "telemetry counters mirror instance stats" `Quick
          test_telemetry_mirror;
        Alcotest.test_case "cached reply equals a fresh computation" `Quick
          test_cached_equals_fresh;
        Alcotest.test_case "sharded cache hit-rate and residency" `Quick
          test_sharded_hit_rate;
        Alcotest.test_case "sharded shapes: rounding, clamping, disable" `Quick
          test_sharded_shapes;
        Alcotest.test_case "invalidate_key bumps the generation; stale add_at drops"
          `Quick test_invalidate_generation;
        Alcotest.test_case "sharded generations are per shard" `Quick
          test_sharded_invalidate_generation;
      ] );
  ]
