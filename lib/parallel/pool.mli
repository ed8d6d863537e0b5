(** A small fixed-size pool of OCaml 5 domains for data-parallel kernels.

    The pool owns [domains - 1] worker domains; the caller's domain is
    always the remaining participant, so [create ~domains:1] (or
    {!seq}) spawns nothing and every operation degenerates to an inline
    sequential loop.

    {2 Determinism contract}

    Every operation chunks its index space with a chunk size that
    depends only on [n] and the [chunk] argument — never on the number
    of domains or on scheduling.  Work is handed out dynamically
    (whichever domain is free grabs the next chunk), but results land in
    slots keyed by chunk index:

    - {!parallel_for} / {!for_chunks} must only perform writes that are
      disjoint across indices; under that (unchecked) contract the
      outcome is identical to a sequential loop, bit for bit.
    - {!map_reduce} folds the per-chunk partials in ascending chunk
      order, so its result is {e identical for any domain count,
      including the sequential fallback}.  It still differs from a plain
      left fold over individual elements by floating-point
      reassociation (the partials are grouped), which is why callers
      that need cross-implementation agreement compare with a ~1e-12
      relative tolerance.
    - {!map_array} preserves input order exactly.

    A region launched from inside another region of the same pool (or
    from a foreign thread while the pool is busy) runs inline on the
    calling domain instead of deadlocking.  More strongly, any domain
    currently executing pool task bodies is flagged ({!am_worker}) and
    every pool entry point it touches — on {e any} pool — degenerates to
    the inline sequential loop without taking a lock: an inner
    [Iterative.cg ?pool] under an outer sweep fan-out neither
    oversubscribes the machine nor serializes on the pool mutex.

    {2 Regions}

    Work reaches the workers one way: through a region.  {!with_region}
    keeps the workers resident for the duration of a scope, and each
    kernel inside it is published to the already-awake workers through
    an atomic task slot (no lock, no condvar on the fast path), so a
    Krylov loop issuing thousands of sub-millisecond kernels pays the
    wake-up once.  Idle workers park on a condition variable after a
    short spin so an oversubscribed host is not burned by busy-waiting.
    A kernel large enough to go parallel outside any region opens a
    region just for itself.  Chunk boundaries, and therefore results,
    are identical to the sequential path. *)

type t

val create : ?domains:int -> unit -> t
(** [create ~domains ()] spawns exactly [domains - 1] workers, whatever
    the host's core count, so tests can build multi-domain pools on
    small hosts; callers facing users cap the count themselves (the
    CLI caps it at [Domain.recommended_domain_count ()]).  [domains]
    defaults to {!default_domains}.  Raises [Invalid_argument] outside
    [1, 64]. *)

val default_domains : unit -> int
(** The [TTSV_DOMAINS] environment variable when it is set to an
    integer in [1, 64], and otherwise [Domain.recommended_domain_count ()]
    capped at 8. *)

val seq : t
(** The shared 1-domain pool: no workers, every operation runs inline.
    Never needs {!shutdown}.  [Option.value pool ~default:Pool.seq] is
    the idiom every [?pool] entry point in the library uses. *)

val domains : t -> int
(** Total participating domains, including the caller (>= 1). *)

val shutdown : t -> unit
(** Joins the workers.  Idempotent; using the pool afterwards raises
    [Invalid_argument].  {!seq} ignores shutdown. *)

val with_pool : ?domains:int -> (t -> 'a) -> 'a
(** [with_pool f] runs [f] on a fresh pool and shuts it down afterwards,
    whether [f] returns or raises. *)

val am_worker : unit -> bool
(** [true] while the calling domain is executing pool task bodies — a
    worker domain resident in a region, or the owner draining a
    kernel's chunks.  Library code uses it to run nested parallel work
    inline; exposed for tests and for callers that want to skip setting
    up parallel state that would never be used. *)

val with_region : t -> (unit -> 'a) -> 'a
(** [with_region pool f] keeps the pool's workers resident while [f]
    runs: every pool kernel the {e calling domain} issues inside [f] is
    handed to the workers through an atomic slot, and the [min_size]
    default drops from 65536 (the cutoff for a lone kernel, which must
    pay a region's wake-up and join by itself) to 2048.  Runs [f]
    directly (no region) when the pool has no workers, the pool is
    already busy, or the caller is itself a pool worker.  Kernels issued
    by other domains while the region is open fall back to their usual
    inline path.  Reentrant: an inner [with_region] on the same pool is
    a no-op wrapper.  The region is closed (workers released and joined)
    when [f] returns or raises. *)

val for_chunks :
  ?chunk:int ->
  ?min_size:int ->
  ?budget:Budget.t ->
  t ->
  int ->
  (lo:int -> hi:int -> unit) ->
  unit
(** [for_chunks pool n body] applies [body ~lo ~hi] to every chunk
    [[lo, hi)] of [[0, n)].  Chunk boundaries depend only on [n] and
    [chunk] (default 1024).  Below [min_size] the chunks run inline on
    the caller; it defaults to 2048 inside an open region and 65536
    outside, where a parallel kernel opens a region of its own.
    Exceptions raised by [body] abort the remaining chunks and the first
    one is re-raised after the workers join.  [budget], when given, is
    polled once per chunk: an expired budget aborts the remaining
    chunks the same way and [Budget.Expired] is raised after the join —
    never from a worker, and never losing a chunk claim. *)

val parallel_for :
  ?chunk:int -> ?min_size:int -> ?budget:Budget.t -> t -> int -> (int -> unit) -> unit
(** [parallel_for pool n f] runs [f i] for every [i] in [[0, n)], in
    ascending order within each chunk.  [f] must only write to state
    disjoint across indices. *)

val map_reduce :
  ?chunk:int ->
  ?min_size:int ->
  ?budget:Budget.t ->
  t ->
  n:int ->
  map:(lo:int -> hi:int -> 'a) ->
  reduce:('a -> 'a -> 'a) ->
  init:'a ->
  'a
(** [map_reduce pool ~n ~map ~reduce ~init] computes one partial per
    chunk with [map ~lo ~hi] and folds them as
    [reduce (... (reduce init p0) ...) p_last] in ascending chunk
    order — the same value for any domain count. *)

val map_array : ?chunk:int -> ?budget:Budget.t -> t -> ('a -> 'b) -> 'a array -> 'b array
(** [map_array pool f xs] is [Array.map f xs] with the elements
    evaluated across the pool ([chunk] defaults to 1: each element is
    one task, for coarse work like sweep points).  Output order is the
    input order. *)

val worker_failures : t -> int
(** Worker crashes contained since the pool was created: exceptions (or
    injected faults, see {!Fault}) that escaped a worker's region loop.
    Each is also counted in the [pool.worker_failures] metric, and
    degrades the open region to owner-only dispatch.  The join protocol
    survives every such crash — a failed worker can never hang a
    region, and each crash is counted before the region that met it
    returns. *)
