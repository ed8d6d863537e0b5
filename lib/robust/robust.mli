(** Resilient linear solving: the escalation ladder.

    [solve] climbs a ladder of solver rungs — IC(0)-preconditioned CG,
    then Jacobi-CG, then a direct banded/dense LU fallback, with
    geometric-multigrid CG available to callers that pin it through
    [rungs] — until one of them produces a solution, and returns a
    {!Diagnostics.t} recording which rungs fired (the preconditioner
    rung included), why the failed ones stopped, and the residual
    history.  Every system the library builds is symmetric positive
    definite, so every iterative rung is conjugate gradients; each later
    rung warm-starts from the best iterate so far.  A preconditioner
    whose {e construction} fails (no grid shape or a hierarchy failure
    for multigrid, IC(0) pivot breakdown at every diagonal shift) costs
    zero iterations: the rung is recorded as [Skipped] with the reason
    and the ladder demotes immediately.  Jacobi-CG has no construction
    step, so it runs whenever every preconditioner above it fails to
    build.
    Inputs containing NaN/Inf (or with mismatched dimensions) are
    rejected up front without spending a single iteration.

    Every failure path is a typed value: no [failwith], no silently
    non-converged result. *)

type reason =
  | Invalid_input of string list
      (** the system was rejected before any rung ran (each entry is one
          human-readable problem) *)
  | Exhausted  (** every rung was attempted and none produced a solution *)
  | Deadline_exceeded
      (** the {!Ttsv_parallel.Budget} expired (deadline or work cap)
          before any rung converged — a {e partial} result: [best]
          carries the least-bad iterate reached and the diagnostics
          record how far each rung got *)

type failure = {
  reason : reason;
  diagnostics : Diagnostics.t;
  best : Ttsv_numerics.Vec.t option;
      (** the least-bad iterate seen across the rungs, when any rung got
          that far — useful for post-mortems and damped restarts *)
  best_residual : float;  (** its true relative residual (NaN when [best] is [None]) *)
}

exception Solve_failed of failure
(** Raised by {!solve_exn} and by the exception-style FEM entry points. *)

val pp_reason : Format.formatter -> reason -> unit
val pp_failure : Format.formatter -> failure -> unit

val default_rungs : Diagnostics.rung list
(** [[Cg_ic0; Cg; Direct]] — the ladder used when no [rungs] list is
    supplied, with or without a [shape].  Multigrid is not on it: its
    hierarchy setup alone costs more than a whole IC(0)-CG solve at
    every committed 2-D and 3-D size, so it runs only when pinned. *)

val solve :
  ?tol:float ->
  ?max_iter:int ->
  ?x0:Ttsv_numerics.Vec.t ->
  ?stagnation_window:int ->
  ?divergence_factor:float ->
  ?pool:Ttsv_parallel.Pool.t ->
  ?rungs:Diagnostics.rung list ->
  ?shape:int array ->
  ?budget:Ttsv_parallel.Budget.t ->
  Ttsv_numerics.Sparse.t ->
  Ttsv_numerics.Vec.t ->
  (Ttsv_numerics.Vec.t * Diagnostics.t, failure) result
(** [solve a b] solves [a x = b], escalating through [rungs] (default
    {!default_rungs}).  [shape] declares that the unknowns live on a
    structured tensor grid with the given extents (first dimension
    fastest-varying; the FEM solvers pass [[|nr; nz|]] /
    [[|nx; ny; nz|]]); it changes no ladder, but a pinned [Cg_mg] rung
    needs it to build its hierarchy — a [Cg_mg] rung requested without
    a [shape] is recorded as
    [Skipped "mg: no structured-grid shape"] and the ladder demotes at
    zero cost.  [tol] (default [1e-10]) is the relative residual
    target; [max_iter] is the per-rung iteration budget of the iterative
    rungs (default [10 * n] each).  [x0] is the first iterative rung's
    initial guess; each later rung starts from the best iterate so far.
    An [x0] that already meets [tol] (by
    {!Ttsv_numerics.Iterative.relative_residual}, checked after the
    input scan and before anything else) is the first rung's answer:
    one [Success] attempt at 0 iterations, no preconditioner built, no
    budget polled — an exact warm start is answered even under an
    expired budget.  [stagnation_window] and
    [divergence_factor] are passed through to
    {!Ttsv_numerics.Iterative.cg} for every iterative rung.  The direct rung builds a pivotless banded LU
    when the bandwidth is narrow, retries with dense partial-pivoting LU
    when the band factorization hits a zero pivot, and accepts the result
    at [max tol 1e-8] (it is the last resort).  [pool] is threaded to the
    iterative rungs' matvec and BLAS-1 kernels; their reductions are
    chunk-deterministic, so pooled and sequential climbs take identical
    paths through the ladder.  Matrices of order beyond
    a few thousand with a wide band skip the dense fallback rather than
    allocating O(n²).

    [budget], when given, bounds the whole climb: the global budget is
    checked before every rung (an expired one stops the ladder with
    {!Deadline_exceeded} — before the non-interruptible direct rung in
    particular — carrying the best iterate so far), and each rung runs
    under an even {!Ttsv_parallel.Budget.split} of the remaining
    wall-clock so one stagnating rung cannot starve the rest.  The
    overshoot past the deadline is bounded by one Krylov iteration plus
    one residual recompute.

    Under an armed {!Ttsv_parallel.Fault} engine the contract tightens
    rather than loosens: injected matvec NaNs surface as
    [Non_finite]/demotion, injected preconditioner failures as
    [Skipped] attempts, and a [Fault.Injected] exception reaching the
    ladder is contained as a [Skipped] attempt — [solve] never leaks an
    uncaught exception. *)

val solve_exn :
  ?tol:float ->
  ?max_iter:int ->
  ?x0:Ttsv_numerics.Vec.t ->
  ?stagnation_window:int ->
  ?divergence_factor:float ->
  ?pool:Ttsv_parallel.Pool.t ->
  ?rungs:Diagnostics.rung list ->
  ?shape:int array ->
  ?budget:Ttsv_parallel.Budget.t ->
  Ttsv_numerics.Sparse.t ->
  Ttsv_numerics.Vec.t ->
  Ttsv_numerics.Vec.t * Diagnostics.t
(** Like {!solve} but raises {!Solve_failed}. *)
