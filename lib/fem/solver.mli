(** Finite-volume solution of an axisymmetric conduction problem.

    Conservative two-point flux discretization: the conductance of each
    internal face combines the two adjacent cells' conductivities in
    series over their centre-to-face distances (the harmonic-mean rule,
    exact for piecewise-constant k in 1-D, which is how every material
    interface in this library is meshed).  The bottom boundary is an
    isothermal sink at rise 0; all other boundaries are adiabatic.  This
    module supplies the r–z geometry to {!Fv}, the finite-volume core
    it shares with the 3-D {!Solver3}.

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
  ?extra_diagonal:float array ->
  Problem.t ->
  Ttsv_numerics.Sparse.t
(** [assemble p] builds the finite-volume conductance matrix in CSR form,
    row by row.  [extra_diagonal], when given, is added to the matrix
    diagonal (used by the transient stepper for the C/Δt term;
    length-checked).  [pool] fills disjoint row chunks across a domain
    pool; chunk boundaries and per-row evaluation order are fixed, so the
    pooled matrix is bitwise identical to the sequential one. *)

val try_solve :
  ?tol:float ->
  ?max_iter:int ->
  ?x0:float array ->
  ?pool:Ttsv_parallel.Pool.t ->
  ?rungs:Ttsv_robust.Diagnostics.rung list ->
  ?budget:Ttsv_parallel.Budget.t ->
  Problem.t ->
  (result, Ttsv_robust.Robust.failure) Stdlib.result
(** [try_solve p] assembles and solves, escalating through the
    {!Ttsv_robust.Robust} ladder.  [tol] defaults to [1e-10].
    Non-finite or non-positive conductivities and non-finite sources are
    rejected up front as [Invalid_input].  [x0] warm-starts the iterative rungs from a
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
  ?pool:Ttsv_parallel.Pool.t ->
  materials:Ttsv_physics.Material.t array ->
  dt:float ->
  steps:int ->
  Problem.t ->
  transient
(** [solve_transient ~materials ~dt ~steps p] integrates
    C·dT/dt + G·T = q (the problem's constant sources) by backward Euler
    from a uniform 0-rise start: the field-solver counterpart of
    {!Ttsv_core.Transient}, used to validate its lumped capacitances.
    Cell capacities are volume × the material's volumetric heat capacity
    ([materials] from {!Problem.materials_of_stack}).  Each step solves
    (G + C/Δt) through the escalation ladder, warm-started from the
    previous instant.  Raises {!Ttsv_robust.Robust.Solve_failed} when a
    step cannot be solved. *)

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
  ?max_picard:int ->
  materials:Ttsv_physics.Material.t array ->
  sink_temperature_k:float ->
  Problem.t ->
  (result * int, picard_failure) Stdlib.result
(** [solve_nonlinear ~materials ~sink_temperature_k p] solves with
    temperature-dependent conductivities by damped Picard iteration:
    solve with the current k field, relax every cell's conductivity
    toward {!Ttsv_physics.Material.k_at} at its absolute temperature
    ([sink_temperature_k] + rise) by the current damping factor, repeat
    until the maximum rise changes by less than 1e-4 relative
    ([max_picard] defaults to 50 sweeps per attempt).  Attempts run
    through the damping factors 1, 0.5 and 0.25: plain Picard first,
    then progressively damped retries before giving up.
    Returns [Ok (result, sweeps)] with the sweeps of the successful
    attempt, or [Error] carrying the last iterate and residual.
    [materials] comes from {!Problem.materials_of_stack}
    (length-checked, [Invalid_argument]).  With temperature-independent
    materials this returns after the second sweep with the linear
    solution. *)

val solve_nonlinear_exn :
  ?tol:float ->
  ?max_picard:int ->
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

val axis_profile : result -> (float * float) array
(** (z, ΔT) along the innermost (axis) column of cells. *)

val energy_imbalance : result -> float
(** |sink flow − total source| / total source (0 when there is no
    source), the sink flow taken over the conductances the assembly
    used; the tests assert it is below 1e-6. *)
