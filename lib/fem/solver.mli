(** Finite-volume solution of an axisymmetric conduction problem.

    Conservative two-point flux discretization: the conductance of each
    internal face combines the two adjacent cells' conductivities in
    series over their centre-to-face distances (the harmonic-mean rule,
    exact for piecewise-constant k in 1-D, which is how every material
    interface in this library is meshed).  The bottom boundary is an
    isothermal sink at rise 0; all other boundaries are adiabatic.

    The assembled conductance matrix is solved through the
    {!Ttsv_robust.Robust} escalation ladder (IC(0)- then
    Jacobi-preconditioned CG, then a direct fallback; multigrid-CG when
    pinned through [rungs]); every result
    carries the ladder's {!Ttsv_robust.Diagnostics.t} and every failure
    is a typed value or typed exception — never a bare [Failure]. *)

type result = {
  problem : Problem.t;
  temps : float array;  (** per-cell temperature rise above the sink, K *)
  iterations : int;  (** total linear iterations used *)
  residual : float;  (** final relative residual *)
  diagnostics : Ttsv_robust.Diagnostics.t;  (** which solver rungs fired and why *)
}

val assemble :
  ?pool:Ttsv_parallel.Pool.t ->
  ?bottom_h:float ->
  ?extra_diagonal:float array ->
  Problem.t ->
  Ttsv_numerics.Sparse.t
(** [assemble p] builds the finite-volume conductance matrix in CSR form,
    row by row.  [extra_diagonal], when given, is added to the matrix
    diagonal (used by the transient stepper for the C/Δt term;
    length-checked).  [pool] fills disjoint row chunks across a domain
    pool; chunk boundaries and per-row evaluation order are fixed, so the
    pooled matrix is bitwise identical to the sequential one. *)

val record_assembly : Ttsv_numerics.Sparse.t -> Ttsv_numerics.Sparse.t
(** [record_assembly m] sets the [assembly.nnz] and [grid.cells] gauges
    (and traces an [assembly.nnz] event) from [m], then returns [m]: one
    set of instruments for the 2-D and 3-D assemblers. *)

val face_conductance : float -> float -> float -> float -> float -> float
(** [face_conductance a d1 k1 d2 k2]: series (harmonic) conductance, W/K,
    of a face of area [a] between half cells of depth/conductivity
    [d1]/[k1] and [d2]/[k2]. *)

val find_cell : float array -> float -> int
(** [find_cell faces x] is the index of the cell of the increasing
    [faces] array that holds [x], clamped to the first or last cell. *)

val check_fields :
  conductivity:float array ->
  source:float array ->
  (unit, Ttsv_robust.Robust.failure) Stdlib.result
(** [Ok ()] when every conductivity is finite and positive and every
    source finite, else an [Invalid_input] failure naming each field's
    first bad cell; {!try_solve} and {!Solver3.try_solve} run it first. *)

val try_solve :
  ?tol:float ->
  ?max_iter:int ->
  ?x0:float array ->
  ?bottom_h:float ->
  ?pool:Ttsv_parallel.Pool.t ->
  ?rungs:Ttsv_robust.Diagnostics.rung list ->
  ?budget:Ttsv_parallel.Budget.t ->
  Problem.t ->
  (result, Ttsv_robust.Robust.failure) Stdlib.result
(** [try_solve p] assembles and solves, escalating through the
    {!Ttsv_robust.Robust} ladder.  [tol] defaults to [1e-10].
    [bottom_h], when given, replaces the isothermal sink with a
    convective boundary of that heat-transfer coefficient (W/(m²·K)) to
    a 0-rise coolant — the package-level boundary §II mentions; rises
    are then above the coolant, not the die surface.  Non-finite or
    non-positive conductivities and non-finite sources are rejected up
    front as [Invalid_input].  [x0] warm-starts the iterative rungs from a
    previous nearby solution (length-checked by the ladder); solving a
    perturbed geometry from a neighbour's field typically converges in a
    fraction of the cold-start iterations, which is what the service
    layer's solution cache exploits.  [pool] parallelizes assembly and
    the iterative rungs; results are bitwise identical to a sequential
    solve.
    [rungs] overrides the escalation ladder (e.g. to pin a single
    preconditioner, as the CLI's [--precond] flag does).  [budget]
    bounds the ladder's wall-clock/work (the CLI's [--deadline]): when
    it expires the result is an [Error] with reason [Deadline_exceeded]
    carrying the best iterate reached — never a hang. *)

val solve :
  ?tol:float ->
  ?max_iter:int ->
  ?x0:float array ->
  ?bottom_h:float ->
  ?pool:Ttsv_parallel.Pool.t ->
  ?rungs:Ttsv_robust.Diagnostics.rung list ->
  ?budget:Ttsv_parallel.Budget.t ->
  Problem.t ->
  result
(** Like {!try_solve} but raises {!Ttsv_robust.Robust.Solve_failed}
    (carrying the full diagnostics) when every rung fails. *)

type transient = {
  times : float array;  (** sample instants, s *)
  max_rises : float array;  (** Max ΔT at each instant, K *)
  final : result;  (** the state after the last step *)
}

val solve_transient :
  ?tol:float ->
  ?bottom_h:float ->
  ?power:(float -> float) ->
  ?pool:Ttsv_parallel.Pool.t ->
  materials:Ttsv_physics.Material.t array ->
  dt:float ->
  steps:int ->
  Problem.t ->
  transient
(** [solve_transient ~materials ~dt ~steps p] integrates
    C·dT/dt + G·T = q(t) by backward Euler from a uniform 0-rise start:
    the field-solver counterpart of {!Ttsv_core.Transient}, used to
    validate its lumped capacitances.  Cell capacities are volume ×
    the material's volumetric heat capacity ([materials] from
    {!Problem.materials_of_stack}).  [power] scales the source over
    time (default constant 1).  Each step solves (G + C/Δt) through the
    escalation ladder, warm-started from the previous instant.  Raises
    {!Ttsv_robust.Robust.Solve_failed} when a step cannot be solved. *)

type picard_failure = {
  sweeps : int;  (** sweeps spent in the last (most damped) attempt *)
  damping : float;  (** the damping factor of that attempt *)
  change : float;  (** last relative change of the maximum rise *)
  last : result;  (** the last iterate, residual attached *)
}
(** Everything known when the Picard iteration gives up. *)

exception Picard_failed of picard_failure

val solve_nonlinear :
  ?tol:float ->
  ?picard_tol:float ->
  ?max_picard:int ->
  ?dampings:float list ->
  materials:Ttsv_physics.Material.t array ->
  sink_temperature_k:float ->
  Problem.t ->
  (result * int, picard_failure) Stdlib.result
(** [solve_nonlinear ~materials ~sink_temperature_k p] solves with
    temperature-dependent conductivities by damped Picard iteration:
    solve with the current k field, relax every cell's conductivity
    toward {!Ttsv_physics.Material.k_at} at its absolute temperature
    ([sink_temperature_k] + rise) by the current damping factor, repeat
    until the maximum rise changes by less than [picard_tol] (default
    1e-4 relative; [max_picard] defaults to 50 sweeps per attempt).
    Attempts run through [dampings] (default [[1.; 0.5; 0.25]]): plain
    Picard first, then progressively damped retries before giving up.
    Returns [Ok (result, sweeps)] with the sweeps of the successful
    attempt, or [Error] carrying the last iterate and residual.
    [materials] comes from {!Problem.materials_of_stack}
    (length-checked, [Invalid_argument]).  With temperature-independent
    materials this returns after the second sweep with the linear
    solution. *)

val solve_nonlinear_exn :
  ?tol:float ->
  ?picard_tol:float ->
  ?max_picard:int ->
  ?dampings:float list ->
  materials:Ttsv_physics.Material.t array ->
  sink_temperature_k:float ->
  Problem.t ->
  result * int
(** Like {!solve_nonlinear} but raises {!Picard_failed}. *)

val max_rise : result -> float
(** Largest cell temperature rise — the paper's Max ΔT. *)

val rise_at : result -> r:float -> z:float -> float
(** [rise_at res ~r ~z] is the rise of the cell containing the point
    (nearest cell when outside the domain). *)

val top_rise_profile : result -> (float * float) array
(** (r, ΔT) along the top row of cells. *)

val axis_profile : result -> (float * float) array
(** (z, ΔT) along the innermost (axis) column of cells. *)

val sink_heat_flow : result -> float
(** Heat leaving through the bottom boundary, W (isothermal-boundary
    formula; results obtained with [bottom_h] report the half-cell
    conduction only).  Energy conservation demands this equal
    {!Problem.total_source} for isothermal solves; the tests assert the
    relative imbalance is below 1e-6. *)

val energy_imbalance : result -> float
(** |sink flow − total source| / total source (0 when there is no
    source). *)
