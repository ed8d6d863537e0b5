(** Finite-volume solution of a 3-D Cartesian conduction problem.

    Same discretization and boundary conditions as the axisymmetric
    {!Solver} — harmonic-mean two-point fluxes, isothermal sink at z = 0,
    adiabatic everywhere else — over the square-cell {!Problem3}
    geometry; solved through the {!Ttsv_robust.Robust} escalation
    ladder.  This module supplies the Cartesian geometry to {!Fv}. *)

type result = {
  problem : Problem3.t;
  temps : float array;  (** per-cell rise above the sink, K *)
  iterations : int;
  residual : float;
  diagnostics : Ttsv_robust.Diagnostics.t;
}

val assemble : ?pool:Ttsv_parallel.Pool.t -> Problem3.t -> Ttsv_numerics.Sparse.t
(** [assemble p] builds the 3-D conductance matrix in CSR form, row by
    row.  [pool] fills disjoint row chunks across a domain pool; the
    pooled matrix is bitwise identical to the sequential one. *)

val try_solve :
  ?tol:float ->
  ?max_iter:int ->
  ?x0:float array ->
  ?pool:Ttsv_parallel.Pool.t ->
  ?rungs:Ttsv_robust.Diagnostics.rung list ->
  ?budget:Ttsv_parallel.Budget.t ->
  Problem3.t ->
  (result, Ttsv_robust.Robust.failure) Stdlib.result
(** [try_solve p] assembles and solves ([tol] defaults to [1e-9]);
    every failure is a typed {!Ttsv_robust.Robust.failure}.  Non-finite
    or non-positive conductivities and non-finite sources are rejected
    up front as [Invalid_input] by {!Fv.ladder_solve}, as in the 2-D
    solver.  [x0] warm-starts the iterative rungs from a nearby
    solution.  [pool] parallelizes assembly and the iterative rungs
    without changing any computed bit.  [rungs] overrides the escalation
    ladder.  [budget] bounds the ladder's wall-clock/work: expiry yields
    an [Error] with reason [Deadline_exceeded] carrying the best iterate
    reached. *)

val solve :
  ?tol:float ->
  ?max_iter:int ->
  ?x0:float array ->
  ?pool:Ttsv_parallel.Pool.t ->
  ?rungs:Ttsv_robust.Diagnostics.rung list ->
  ?budget:Ttsv_parallel.Budget.t ->
  Problem3.t ->
  result
(** Like {!try_solve} but raises {!Ttsv_robust.Robust.Solve_failed}. *)

val max_rise : result -> float

val rise_at : result -> x:float -> y:float -> z:float -> float
(** Rise of the cell containing the point (clamped to the domain). *)

val energy_imbalance : result -> float
(** |sink flow − total source| / total source, as in {!Solver}. *)
