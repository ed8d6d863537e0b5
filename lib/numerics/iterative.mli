(** Preconditioned conjugate gradients for sparse linear systems.

    The finite-volume heat solver produces large symmetric positive-definite
    conductance matrices (symmetric harmonic-mean fluxes, a Dirichlet sink;
    backward Euler and Picard keep them SPD), so {!cg} is the only
    iterative solver: Jacobi-preconditioned by default, or with any
    {!Precond.t} (multigrid, IC(0)) the caller supplies.

    The solver carries in-flight health guards: matrices and right-hand
    sides containing NaN/Inf are rejected up front ({!Non_finite}), a
    residual that stops improving for a window of iterations aborts the
    loop ({!Stagnated}), and a residual growing far beyond the best seen
    aborts it too ({!Diverged}) — so a hopeless solve stops after tens of
    iterations instead of burning the full [10 * n] budget.  The
    {!Ttsv_robust.Robust} escalation ladder builds on these statuses. *)

type status =
  | Converged  (** the relative residual reached [tol] *)
  | Iteration_limit  (** the iteration budget ran out while still improving *)
  | Breakdown of string  (** an inner product underflowed (which one) *)
  | Stagnated of int
      (** no meaningful residual improvement for that many iterations *)
  | Diverged of float  (** the residual grew by that factor over the best seen *)
  | Non_finite of string  (** NaN/Inf detected in the matrix, rhs or iterates *)
  | Budget_exhausted of Ttsv_parallel.Budget.verdict
      (** the {!Ttsv_parallel.Budget} handed to the solver expired; the
          result carries the iterate reached so far *)

type result = {
  solution : Vec.t;
  iterations : int;  (** iterations actually performed *)
  residual : float;  (** final 2-norm of [b - A x], relative to [||b||] *)
  converged : bool;  (** whether [residual <= tol] was reached *)
  status : status;  (** why the iteration stopped *)
  trace : float array;  (** relative-residual history, initial guess included *)
  conv : Ttsv_obs.History.snapshot option;
      (** bounded convergence history, recorded only while observability
          is enabled ({!Ttsv_obs.Flags.enabled}) — [None] on the
          disabled path (no ring buffer is allocated).  When a trace
          file is open the same
          snapshot is emitted as a [conv] JSONL event tagged with the
          enclosing span. *)
}

val pp_status : Format.formatter -> status -> unit

val relative_residual : ?pool:Ttsv_parallel.Pool.t -> Sparse.t -> Vec.t -> Vec.t -> float
(** [relative_residual a b x] is [||b - A x|| / ||b||] computed with the
    kernels of {!cg}'s start test (chunked, pool-independent norm), so
    it equals bitwise the residual {!cg} would start from at [x0 = x]. *)

val cg :
  ?tol:float ->
  ?max_iter:int ->
  ?x0:Vec.t ->
  ?stagnation_window:int ->
  ?divergence_factor:float ->
  ?pool:Ttsv_parallel.Pool.t ->
  ?precond:Precond.t ->
  ?budget:Ttsv_parallel.Budget.t ->
  Sparse.t ->
  Vec.t ->
  result
(** [cg a b] solves [a x = b] for symmetric positive-definite [a] with
    Jacobi (diagonal) preconditioning by default; pass [precond] to use
    a stronger {!Precond.t} (multigrid, IC(0)) instead — the Jacobi array
    is then never built.  [tol] is the relative residual
    target (default [1e-10]); [max_iter] defaults to [10 * n];
    [x0] defaults to the zero vector; an [x0] that already meets [tol]
    costs one matvec and returns at iteration 0 without applying the
    preconditioner.  The per-iteration residuals are in [trace] (and
    [conv]).
    [stagnation_window] (default [max 250 (max_iter / 10)] — Krylov
    residuals legitimately plateau for long stretches before the
    superlinear phase, so the default scales with the budget) and
    [divergence_factor] (default [1e4]) tune the health guards.  When
    the loop exits on anything but a
    verified [residual <= tol], the true residual [||b - A x|| / ||b||]
    is recomputed before reporting, so [converged] cannot be stale.

    [pool], when given, runs the matvec and the BLAS-1 kernels across
    the domain pool, inside one persistent {!Ttsv_parallel.Pool.with_region}
    spanning the whole solve (the workers stay resident; no per-kernel
    fork/join).  All reductions are chunk-deterministic ({!Vec.pdot})
    and preconditioner applications pool-independent, so a pooled run
    observes the exact residual sequence of a sequential run — same
    iterates, same guard decisions, same iteration count.  When called
    from inside a pool task (an outer sweep fan-out), the kernels run
    sequentially instead of nesting parallelism.

    [budget], when given, is polled once per iteration (and ticked once
    per matvec): an expired budget stops the loop with
    {!Budget_exhausted}, the result carrying the current iterate and its
    recomputed true residual — the overshoot past a wall-clock deadline
    is bounded by one iteration. *)
