(** The batch solve engine behind [ttsv_cli serve].

    One engine owns two {!Cache} levels, both keyed by the canonical
    {!Protocol.solve_key}:

    - {b operators}: assembled CSR conductance matrices with their
      source vector — skips meshing + assembly on a repeated geometry;
    - {b solutions}: previous temperature fields, used to warm-start
      repeated queries (exact key hit) and nearby ones (freshest
      dimension-compatible field), which converge in a fraction of the
      cold-start iterations.

    Every solve runs the {!Ttsv_robust.Robust} ladder on the cached
    operator.  A warm start that already meets the request's [tol] (an
    exact hit, as a rule) is the ladder's answer at 0 iterations, with
    no preconditioner built.
    Every request is handled inside a [service.request] span and feeds
    [service.*] metrics; every failure path maps to a typed
    {!Protocol.error} response — an engine never lets an exception
    escape a request. *)

type t

val create : ?pool:Ttsv_parallel.Pool.t -> unit -> t
(** [create ()] builds an engine with empty caches of fixed capacity:
    32 operators and 64 solutions.  [pool], when given, shards batches
    across its domains and parallelizes assembly/solve kernels. *)

val handle : t -> Protocol.request -> Protocol.response
(** Handle one request; total (never raises). *)

val handle_batch : t -> Protocol.request array -> Protocol.response array
(** Handle a batch, sharding the (independent) requests across the
    engine's pool one request per task; responses come back in request
    order.  Cache effects depend on completion order under a pool —
    results never do. *)

val serve : ?batch:int -> t -> in_channel -> out_channel -> int
(** [serve t ic oc] reads JSONL requests from [ic] in groups of at most
    [batch] lines (default 64), handles each group with {!handle_batch},
    and writes one JSONL response per input line to [oc] (in input
    order, flushed per group) until end of input.  Malformed lines
    become typed [error] responses in place.  Returns the number of
    lines answered.
    @raise Invalid_argument when [batch < 1]. *)

val cache_stats : t -> (string * (int * int * int)) list
(** Per-level [(name, (hits, misses, evictions))], in (operator,
    solution) order. *)

val hit_rate : t -> float
(** Pooled hit rate over both levels; 0 before any lookup. *)
