(** Thread-safe LRU result cache.

    Keys are the quantized observation signatures of {!Protocol}; values
    are whatever the server wants to replay (a computed estimate).  A
    [find] hit promotes the entry to most-recently-used; an [add] beyond
    capacity evicts the least-recently-used entry.  All operations are
    O(1) (hash table + intrusive doubly-linked list) and serialized by an
    internal mutex, so connection threads may consult one instance
    concurrently.

    Every instance keeps its own hit/miss/eviction tally (always on, used
    by the [stats] wire frame).  The result cache ({!Sharded}) also
    mirrors each event into the [serve] telemetry counters
    ({!Metrics.cache_hits} & co.), which record only while telemetry is
    enabled; the qcheck suite reconciles the two.  Plain instances never
    touch telemetry, so the daemon's session lookups are not cache
    traffic. *)

type ('k, 'v) t

val create : capacity:int -> unit -> ('k, 'v) t
(** [capacity = 0] disables the cache: every [find] misses (without
    counting), every [add] is dropped.
    @raise Invalid_argument on negative capacity. *)

val capacity : ('k, 'v) t -> int
val length : ('k, 'v) t -> int

val find : ('k, 'v) t -> 'k -> 'v option
(** Promotes on hit; counts a hit or a miss (unless disabled). *)

val add : ('k, 'v) t -> 'k -> 'v -> 'k option
(** Insert or overwrite (either way the key becomes most-recently-used);
    evicts the least-recently-used entry when the capacity would be
    exceeded, and returns its key. *)

val mem : ('k, 'v) t -> 'k -> bool
(** Presence test with no promotion and no counter effect. *)

val generation : ('k, 'v) t -> int
(** Current version tag (0 for a disabled cache).  Read it {e before}
    computing a value destined for {!add_at}. *)

val add_at : ('k, 'v) t -> gen:int -> 'k -> 'v -> 'k option
(** {!add}, but dropped if an {!invalidate_key} has bumped the generation
    since [gen] was read — closes the race where a reply computed from
    pre-update state would be cached after the update invalidated it. *)

val invalidate_key : ('k, 'v) t -> 'k -> bool
(** Remove the entry (if present) and bump the generation so in-flight
    {!add_at}s with an older tag are dropped.  Returns whether an entry
    was actually removed; counts one invalidation either way (no-op on a
    disabled cache). *)

type stats = {
  hits : int;
  misses : int;
  evictions : int;
  invalidations : int;
  size : int;
  capacity : int;
}

val stats : ('k, 'v) t -> stats

(** Shard-striped variant: N independent LRU instances, each with its own
    mutex, selected by [Hashtbl.hash key].  Concurrent hitters on
    different shards no longer serialize on one cache mutex; eviction is
    LRU {e per shard} (an approximation of global LRU — a hot shard may
    evict before a cold one fills).  The shard count is rounded down to a
    power of two and never exceeds the capacity; the requested total
    capacity is distributed exactly across shards. *)
module Sharded : sig
  type ('k, 'v) t

  val create : ?shards:int -> capacity:int -> unit -> ('k, 'v) t
  (** [shards] defaults to 8.  [capacity = 0] disables the cache exactly
      like {!Lru.create}.
      @raise Invalid_argument on [shards < 1] or negative capacity. *)

  val shard_count : ('k, 'v) t -> int
  val find : ('k, 'v) t -> 'k -> 'v option
  val add : ('k, 'v) t -> 'k -> 'v -> unit
  val mem : ('k, 'v) t -> 'k -> bool
  val capacity : ('k, 'v) t -> int
  val length : ('k, 'v) t -> int

  val generation : ('k, 'v) t -> 'k -> int
  (** Version tag of the key's shard — invalidations elsewhere never
      spuriously drop this key's {!add_at}. *)

  val add_at : ('k, 'v) t -> gen:int -> 'k -> 'v -> unit
  val invalidate_key : ('k, 'v) t -> 'k -> bool

  val stats : ('k, 'v) t -> stats
  (** Tallies summed across shards. *)
end
