(** The finite-volume core the axisymmetric {!Solver} and the 3-D
    {!Solver3} share.

    Both discretize conduction on a tensor grid the same way: a
    two-point flux across each internal face whose conductance combines
    the two half cells in series (the harmonic-mean rule), an isothermal
    sink at rise 0 under the bottom layer, adiabatic walls elsewhere.  A
    solver supplies only its geometry: [faces], the face positions along
    each dimension (dimension 0 varies fastest in the flattened cell
    index, the last is vertical, from the sink up); each face's area;
    and each bottom cell's conductance to the sink.  This module owns
    the rest: the CSR row layout, the field check and ladder call, and
    the sink-flux energy audit. *)

val find_cell : float array -> float -> int
(** [find_cell faces x] is the index of the cell of the increasing
    [faces] array that holds [x], clamped to the first or last cell. *)

val assemble :
  span:string ->
  ?pool:Ttsv_parallel.Pool.t ->
  ?extra_diagonal:float array ->
  faces:float array array ->
  conductivity:float array ->
  sink:(int -> float) ->
  (int -> int array -> float) ->
  Ttsv_numerics.Sparse.t
(** [assemble ~span ~faces ~conductivity ~sink area] builds the
    conductance matrix in CSR form inside a span named [span].
    [area d c] is the area of the face between the cell at coordinates
    [c] (read during the call only) and its upper neighbour along
    dimension [d]; [sink i] is bottom cell [i]'s conductance to the
    sink; [extra_diagonal] is added to the diagonal last.  Columns
    ascend in each row, and each diagonal sums its terms in one fixed
    order, so [pool] fills chunks of rows and the pooled matrix is
    bitwise identical to the sequential one.  Sets the [assembly.nnz]
    and [grid.cells] gauges (and traces an [assembly.nnz] event) when
    observability is on. *)

val ladder_solve :
  span:string ->
  tol:float ->
  max_iter_for:(int -> int) ->
  ?max_iter:int ->
  ?x0:float array ->
  ?pool:Ttsv_parallel.Pool.t ->
  ?rungs:Ttsv_robust.Diagnostics.rung list ->
  ?budget:Ttsv_parallel.Budget.t ->
  faces:float array array ->
  conductivity:float array ->
  source:float array ->
  (unit -> Ttsv_numerics.Sparse.t) ->
  (float array * Ttsv_robust.Diagnostics.t, Ttsv_robust.Robust.failure) Stdlib.result
(** The solve behind both solvers' [try_solve].  A conductivity that is
    not finite and positive, or a source that is not finite, is an
    [Invalid_input] failure naming each field's first bad cell.
    Otherwise it assembles and runs {!Ttsv_robust.Robust.solve} inside a
    span named [span], with [max_iter] defaulting to [max_iter_for n]
    for [n] unknowns and the grid's shape declared for a pinned
    multigrid rung. *)

val energy_imbalance :
  faces:float array array -> sink:(int -> float) -> total_source:float -> float array -> float
(** [energy_imbalance ~faces ~sink ~total_source temps] is
    |sink flow − total_source| / total_source (0 when there is no
    source), the sink flow summing [sink i ·. temps.(i)] over the bottom
    layer's cells in index order. *)
