(** Bounded, thread-safe LRU cache — one instance per cache level.

    The engine keeps two of these (assembled operators and previous
    solutions), both keyed by the canonical {!Protocol.solve_key}
    string, the bit patterns of the request's geometry and resolution.
    Capacity is a hard bound: inserting into a full cache evicts the
    least-recently-used entry.  Every operation takes the cache's
    mutex, so batch workers on different domains share one cache
    safely; a concurrent miss may compute the same value twice (last
    writer wins), which costs duplicate work but never a wrong
    answer.

    Hit/miss/eviction counts are kept in plain fields (always on, read
    by the bench harness) and mirrored into the metrics registry as
    [service.cache.<name>.hits|misses|evictions] counters (subject to
    {!Ttsv_obs.Flags.metrics_on}, like every other metric). *)

type 'a t

val create : name:string -> capacity:int -> unit -> 'a t
(** @raise Invalid_argument when [capacity < 1]. *)

val name : 'a t -> string
val length : 'a t -> int

val find : 'a t -> string -> 'a option
(** Lookup; a hit marks the entry most-recently-used and bumps the hit
    counter, a miss bumps the miss counter. *)

val find_newest : 'a t -> ('a -> bool) -> 'a option
(** Scan from most- to least-recently-used and return the first entry
    satisfying the predicate — how a solve with no exact key match picks
    the freshest dimension-compatible solution to warm-start from.
    Counts as a hit/miss like {!find}; does not change recency order. *)

val add : 'a t -> string -> 'a -> unit
(** Insert or overwrite, marking the entry most-recently-used; evicts
    the LRU entry when the cache is over capacity. *)

val hits : 'a t -> int
val misses : 'a t -> int
val evictions : 'a t -> int

val hit_rate : 'a t -> float
(** [hits / (hits + misses)]; 0 before any lookup. *)
