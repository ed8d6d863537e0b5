(** Pooled evaluation of independent sweep points.

    Every figure and study in this library is a sweep: a list of stacks
    (or parameters, or Monte-Carlo samples) mapped through an expensive,
    independent evaluation.  [Sweep] runs those evaluations across a
    {!Ttsv_parallel.Pool} while keeping the output in input order —
    element [i] of the result is always [f] applied to element [i] of
    the input, whatever the pool's scheduling, so a pooled sweep is
    indistinguishable from a sequential one.

    Evaluations must be pure (or at least independent); any exception
    raised by [f] aborts the sweep and is re-raised to the caller.

    When observability is enabled ({!Ttsv_obs.Config}), every point is
    evaluated inside a ["sweep.point"] span tagged with its index, on
    whichever domain ran it.

    {2 Checkpoints}

    [checkpoint] makes the sweep resumable: each completed point is
    encoded and appended to the {!Checkpoint} file the moment it
    finishes, and points already recorded there are decoded instead of
    recomputed.  Since the encoding round-trips floats bitwise, a
    killed-and-resumed sweep produces results identical to an
    uninterrupted one while re-evaluating only the unfinished points. *)

type 'b stage
(** One named sweep inside a {!Checkpoint.t}: where to record, and how
    to encode/decode the point results. *)

val stage :
  Checkpoint.t ->
  name:string ->
  encode:('b -> Ttsv_obs.Json.t) ->
  decode:(Ttsv_obs.Json.t -> 'b option) ->
  'b stage
(** [decode] returning [None] (a corrupt or foreign value) recomputes
    the point. *)

val float_stage : Checkpoint.t -> string -> float stage
(** The common case: sweeps producing one float per point. *)

val map :
  ?pool:Ttsv_parallel.Pool.t ->
  ?checkpoint:'b stage ->
  ('a -> 'b) ->
  'a list ->
  'b array
(** [map f xs] evaluates [f] over the points of [xs] — over the pool
    when one is given, sequentially otherwise — and returns the results
    in input order. *)

val map_array :
  ?pool:Ttsv_parallel.Pool.t ->
  ?checkpoint:'b stage ->
  ('a -> 'b) ->
  'a array ->
  'b array
(** Array-input variant of {!map}. *)
