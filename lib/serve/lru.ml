(* Hash table over intrusive doubly-linked nodes; a circular sentinel
   keeps the link operations branch-free.  [sentinel.next] is the
   most-recently-used end, [sentinel.prev] the eviction end. *)

type ('k, 'v) node = {
  key : 'k;
  mutable value : 'v;
  mutable prev : ('k, 'v) node;
  mutable next : ('k, 'v) node;
}

type ('k, 'v) t = {
  cap : int;
  table : ('k, ('k, 'v) node) Hashtbl.t;
  mutable sentinel : ('k, 'v) node option; (* None until the first add *)
  lock : Mutex.t;
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
  (* Version tag bumped by every [invalidate_key]: an [add_at] whose
     generation was read before the bump is dropped, so a compute racing a
     streamed update can never re-install the stale value it computed. *)
  mutable generation : int;
  mutable invalidations : int;
}

let create ~capacity () =
  if capacity < 0 then invalid_arg "Lru.create: negative capacity";
  {
    cap = capacity;
    table = Hashtbl.create (max 16 capacity);
    sentinel = None;
    lock = Mutex.create ();
    hits = 0;
    misses = 0;
    evictions = 0;
    generation = 0;
    invalidations = 0;
  }

let capacity t = t.cap

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let length t = locked t (fun () -> Hashtbl.length t.table)

let unlink node =
  node.prev.next <- node.next;
  node.next.prev <- node.prev

let link_front sentinel node =
  node.next <- sentinel.next;
  node.prev <- sentinel;
  sentinel.next.prev <- node;
  sentinel.next <- node

let find t k =
  if t.cap = 0 then None
  else
    locked t (fun () ->
        match Hashtbl.find_opt t.table k with
        | Some node ->
            t.hits <- t.hits + 1;
            (match t.sentinel with
            | Some s ->
                unlink node;
                link_front s node
            | None -> ());
            Some node.value
        | None ->
            t.misses <- t.misses + 1;
            None)

let mem t k = locked t (fun () -> Hashtbl.mem t.table k)

let add_locked t k v =
  let sentinel =
    match t.sentinel with
    | Some s -> s
    | None ->
        (* The sentinel needs a node value to exist; borrow the first
           insertion's and let the cycle point at itself. *)
        let rec s = { key = k; value = v; prev = s; next = s } in
        t.sentinel <- Some s;
        s
  in
  match Hashtbl.find_opt t.table k with
  | Some node ->
      node.value <- v;
      unlink node;
      link_front sentinel node;
      None
  | None ->
      let victim =
        if Hashtbl.length t.table < t.cap then None
        else begin
          let victim = sentinel.prev in
          (* cap >= 1 and the table is at capacity, so the eviction
             end is a real node, never the sentinel itself. *)
          unlink victim;
          Hashtbl.remove t.table victim.key;
          t.evictions <- t.evictions + 1;
          Some victim.key
        end
      in
      let node = { key = k; value = v; prev = sentinel; next = sentinel } in
      link_front sentinel node;
      Hashtbl.replace t.table k node;
      victim

let add t k v = if t.cap > 0 then locked t (fun () -> add_locked t k v) else None

let generation t = if t.cap = 0 then 0 else locked t (fun () -> t.generation)

let add_at t ~gen k v =
  if t.cap > 0 then locked t (fun () -> if t.generation = gen then add_locked t k v else None)
  else None

let invalidate_key t k =
  if t.cap = 0 then false
  else
    locked t (fun () ->
        t.generation <- t.generation + 1;
        t.invalidations <- t.invalidations + 1;
        match Hashtbl.find_opt t.table k with
        | Some node ->
            unlink node;
            Hashtbl.remove t.table k;
            true
        | None -> false)

type stats = {
  hits : int;
  misses : int;
  evictions : int;
  invalidations : int;
  size : int;
  capacity : int;
}

let stats t =
  locked t (fun () ->
      {
        hits = t.hits;
        misses = t.misses;
        evictions = t.evictions;
        invalidations = t.invalidations;
        size = Hashtbl.length t.table;
        capacity = t.cap;
      })

(* ------------------------------------------------------------------ *)
(* Sharding                                                            *)
(* ------------------------------------------------------------------ *)

module Sharded = struct
  type ('k, 'v) shard_set = { shards : ('k, 'v) t array; mask : int }
  type nonrec ('k, 'v) t = ('k, 'v) shard_set

  (* Largest power of two <= n (n >= 1). *)
  let floor_pow2 n =
    let k = ref 1 in
    while !k * 2 <= n do
      k := !k * 2
    done;
    !k

  let create ?(shards = 8) ~capacity () =
    if shards < 1 then invalid_arg "Lru.Sharded.create: shards < 1";
    if capacity < 0 then invalid_arg "Lru.Sharded.create: negative capacity";
    (* Power-of-two shard count for mask selection, and never more
       shards than capacity entries (each live shard holds >= 1). *)
    let n = if capacity = 0 then 1 else floor_pow2 (min shards capacity) in
    let base = capacity / n and rem = capacity mod n in
    {
      shards = Array.init n (fun i -> create ~capacity:(base + if i < rem then 1 else 0) ());
      mask = n - 1;
    }

  let shard_count t = Array.length t.shards
  let shard_of t k = t.shards.(Hashtbl.hash k land t.mask)

  (* The result cache mirrors its traffic into the [serve] telemetry
     counters, read off each operation's result; a disabled cache (the
     only way a shard has capacity 0) counts nothing. *)
  let mirror s c = if s.cap > 0 then Obs.Telemetry.Counter.incr c
  let evicted = function Some _ -> Obs.Telemetry.Counter.incr Metrics.cache_evictions | None -> ()

  let find t k =
    let s = shard_of t k in
    let r = find s k in
    mirror s (if Option.is_some r then Metrics.cache_hits else Metrics.cache_misses);
    r

  let add t k v = evicted (add (shard_of t k) k v)
  let mem t k = mem (shard_of t k) k
  let capacity t = Array.fold_left (fun acc s -> acc + capacity s) 0 t.shards
  let length t = Array.fold_left (fun acc s -> acc + length s) 0 t.shards

  (* Generation tags are per shard; read and re-check on the same key so
     the tag travels with the shard that actually stores it. *)
  let generation t k = generation (shard_of t k)
  let add_at t ~gen k v = evicted (add_at (shard_of t k) ~gen k v)

  let invalidate_key t k =
    let s = shard_of t k in
    mirror s Metrics.cache_invalidations;
    invalidate_key s k

  let stats t =
    Array.fold_left
      (fun acc s ->
        let st = stats s in
        {
          hits = acc.hits + st.hits;
          misses = acc.misses + st.misses;
          evictions = acc.evictions + st.evictions;
          invalidations = acc.invalidations + st.invalidations;
          size = acc.size + st.size;
          capacity = acc.capacity + st.capacity;
        })
      { hits = 0; misses = 0; evictions = 0; invalidations = 0; size = 0; capacity = 0 }
      t.shards
end
