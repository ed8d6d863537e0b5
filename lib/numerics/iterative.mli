(** Preconditioned conjugate gradients for sparse linear systems.

    The finite-volume heat solver produces large symmetric positive-definite
    conductance matrices (symmetric harmonic-mean fluxes, a Dirichlet sink;
    backward Euler and Picard keep them SPD), so {!cg} is the only
    iterative solver: Jacobi-preconditioned by default, or with any
    {!Precond.t} (multigrid, IC(0)) the caller supplies.

    The solver carries in-flight health guards: a NaN/Inf residual stops
    the loop ({!Non_finite}), a residual that stops improving for a
    window of iterations aborts it ({!Stagnated}), and a residual growing
    far beyond the best seen aborts it too ({!Diverged}) — so a hopeless
    solve stops after tens of iterations instead of burning the full
    [10 * n] budget.  {!cg} does not scan its inputs:
    {!Ttsv_robust.Robust.solve} rejects a NaN/Inf matrix or right-hand
    side before any rung runs, so each ladder solve scans them once.  A
    bare {!cg} on such a system returns [Non_finite "iterates"] with
    [converged = false] after one iteration, and never raises.  The
    {!Ttsv_robust.Robust} escalation ladder builds on these statuses. *)

type status =
  | Converged  (** the relative residual reached [tol] *)
  | Iteration_limit  (** the iteration budget ran out while still improving *)
  | Breakdown of string  (** an inner product underflowed (which one) *)
  | Stagnated of int
      (** no meaningful residual improvement for that many iterations *)
  | Diverged of float  (** the residual grew by that factor over the best seen *)
  | Non_finite of string
      (** NaN/Inf detected in the iterates (where a non-finite matrix or
          rhs surfaces too) *)
  | Budget_exhausted of Ttsv_parallel.Budget.verdict
      (** the {!Ttsv_parallel.Budget} handed to the solver expired; the
          result carries the iterate reached so far *)

type result = {
  solution : Vec.t;
  iterations : int;  (** iterations actually performed *)
  residual : float;  (** final 2-norm of [b - A x], relative to [||b||] *)
  converged : bool;  (** whether [residual <= tol] was reached *)
  status : status;  (** why the iteration stopped *)
  trace : float array;
      (** the solve's one residual history: [trace.(i)] is the relative
          residual after iteration [i], index 0 the initial guess.
          Recorded on every solve, observability on or off.  When a
          trace file is open it is also written as a [conv] line
          ({!Ttsv_obs.Sink.conv}) tagged with the enclosing span. *)
}

val pp_status : Format.formatter -> status -> unit

val relative_residual : ?pool:Ttsv_parallel.Pool.t -> Sparse.t -> Vec.t -> Vec.t -> float
(** [relative_residual a b x] is [||b - A x|| / ||b||] in one fused pass
    over {!Sparse.csr}: per row it forms [r = b_i - (A x)_i], the row
    summed in {!Sparse.mul}'s order, and adds [r *. r] into that row's
    {!Vec.reduce_chunk} chunk; the chunks fold in order through
    {!Ttsv_parallel.Pool.map_reduce}.  The value is therefore bitwise
    [Vec.pnorm2 ?pool (Vec.sub b (Sparse.mul ?pool a x)) /. ||b||] — the
    residual {!cg} would start from at [x0 = x] — with or without a
    pool, and no n-vector is allocated.  Raises [Invalid_argument] when
    [x] or [b] does not match [a]'s dimensions. *)

val mul_dot : ?pool:Ttsv_parallel.Pool.t -> Sparse.t -> Vec.t -> Vec.t -> float
(** [mul_dot a p ap] writes [A p] into [ap] and returns [p . Ap], in one
    pass over {!Sparse.csr}: each row summed in {!Sparse.mul}'s order,
    and [p_i *. (A p)_i] added into that row's {!Vec.reduce_chunk}
    chunk, the chunks folded in order.  [ap] is therefore bitwise
    [Sparse.mul a p] and the value bitwise
    [Vec.pdot ?pool p (Sparse.mul ?pool a p)], with or without a pool.
    Raises [Invalid_argument] unless [a] is square of the order of [p]
    and [ap]. *)

val update_sumsq :
  ?pool:Ttsv_parallel.Pool.t -> float -> Vec.t -> Vec.t -> Vec.t -> Vec.t -> float
(** [update_sumsq alpha p ap x r] performs CG's update [x <- alpha p + x]
    and [r <- r - alpha ap] in one pass, and returns the updated
    [r . r] summed per {!Vec.reduce_chunk} chunk in chunk order.  [x]
    and [r] end bitwise as after
    [Vec.paxpy alpha p x; Vec.paxpy (-. alpha) ap r], and the value is
    bitwise [Vec.pdot ?pool r r] on that [r] (so its [sqrt] is
    [Vec.pnorm2 ?pool r]), with or without a pool.  Raises
    [Invalid_argument] unless the four vectors have one length. *)

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
    [x0] defaults to the zero vector and is never written: [cg] iterates
    on a copy.  An [x0] that already meets [tol]
    costs one matvec and returns at iteration 0 without applying the
    preconditioner.  A solve allocates its vectors once, before the
    first iteration ([x], [r], [M^-1 r], [p], [Ap]); each iteration
    fills them in place ({!Precond.apply_into}, {!mul_dot},
    {!update_sumsq}, {!Vec.pxpby}) and allocates no n-vector beyond
    what an {!Precond.mg} V-cycle builds.  The per-iteration residuals
    are in [trace].
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
    wake-up and join).  All reductions are chunk-deterministic
    ({!Vec.pdot}, {!mul_dot}, {!update_sumsq})
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
