(** Pluggable SPD preconditioners for the Krylov solver.

    One abstract interface, three constructions, in decreasing order of
    strength on the library's finite-volume conductance matrices:

    - {!mg} — one symmetric geometric-multigrid V-cycle per application
      (see {!Multigrid}).  Strongest on the structured tensor grids and
      the only one whose iteration counts stay near-constant as the
      grid refines; needs the grid [shape], so it is only available
      where one is known.  Every kernel it runs is embarrassingly
      parallel, unlike the triangular sweeps of {!ic0}.
    - {!ic0} — incomplete Cholesky with zero fill.  Strongest
      shape-oblivious option: on the
      fig5/Table I grids it cuts CG iteration counts by roughly an order
      of magnitude over Jacobi.  Construction can {e break down} (a
      non-positive pivot) on SPD matrices that are not H-matrices; the
      constructor retries internally with growing relative diagonal
      shifts and only then reports an error.  Once a factorization
      succeeds, each stored pivot [L[i,i]] is replaced by [1 / L[i,i]],
      so both triangular sweeps of an application multiply where they
      would divide.
    - {!jacobi} — diagonal scaling.  Weakest, but total: defined for
      every matrix, zero construction cost.  The rung to fall back on
      when neither of the others can be built.

    Applications are deterministic: the triangular sweeps of {!ic0} are
    sequential by data dependence (and identical under any pool), and
    the pooled {!jacobi} scaling is elementwise — so a preconditioned
    solve takes the same iteration path with or without a domain
    pool. *)

type t

val name : t -> string
(** ["mg"], ["ic0"] or ["jacobi"]. *)

val dim : t -> int
(** The order of the matrix the preconditioner was built from. *)

val apply_into : ?pool:Ttsv_parallel.Pool.t -> t -> Vec.t -> Vec.t -> unit
(** [apply_into m r z] writes [M^-1 r] into [z], whose prior contents
    are ignored; nothing of length [dim m] is allocated except by {!mg},
    whose V-cycle builds its result and copies it into [z].  This is how
    {!Iterative.cg} applies the preconditioner, into one workspace per
    solve.  [pool] is used by the {!jacobi} scaling and by {!mg}'s
    kernels; the result never depends on it.  Raises
    [Invalid_argument] when [r] or [z] does not have length [dim m]. *)

val apply : ?pool:Ttsv_parallel.Pool.t -> t -> Vec.t -> Vec.t
(** [apply m r] is {!apply_into} on a fresh zero vector, returned:
    bitwise the same [M^-1 r]. *)

val jacobi : Sparse.t -> t
(** Diagonal (Jacobi) scaling.  Total: zero or denormal diagonal entries
    scale by 1 instead of dividing by ~0. *)

val jacobi_of_diagonal : Vec.t -> t
(** {!jacobi} from an already-extracted diagonal, for callers that have
    one (avoids a second [Sparse.diagonal] pass). *)

val ic0 : ?budget:Ttsv_parallel.Budget.t -> Sparse.t -> (t, string) result
(** Incomplete Cholesky factorization with zero fill on the lower
    triangle of [a].  On a non-positive pivot the factorization is
    retried from scratch with the next relative diagonal shift of
    [0, 1e-3, 1e-2, 1e-1, 1] (the diagonal becomes
    [a_ii * (1 + shift)]); [Error] when
    every shift breaks down, when the matrix is not square, or when some
    row has no stored diagonal entry.  An application is one forward and
    one backward sweep over [L], which stores the reciprocal pivots
    [1 / L[i,i]] on its diagonal: [M^-1 r] agrees with divide-form
    sweeps to rounding, not bit for bit.  [budget] is polled between shift
    retries (each is a full refactorization): an expired budget reports
    as [Error "budget expired (...)"], and the caller demotes exactly as
    for a breakdown.

    Both fallible constructors ({!ic0}, {!mg}) double as the
    {!Ttsv_parallel.Fault} ["precond"] chaos site: when armed and fired
    they return [Error "injected construction fault"]. *)

val ic0_shift : t -> float option
(** The diagonal shift the successful IC(0) factorization used ([0.]
    when the unshifted factorization went through); [None] for other
    kinds. *)

val mg :
  ?pool:Ttsv_parallel.Pool.t ->
  ?budget:Ttsv_parallel.Budget.t ->
  shape:int array ->
  Sparse.t ->
  (t, string) result
(** Geometric-multigrid preconditioner: each application is one
    symmetric V(ν,ν) cycle of {!Multigrid.cycle} on the hierarchy built
    by {!Multigrid.build} (Chebyshev-accelerated line smoothing,
    Galerkin coarse operators, semicoarsening on anisotropic grids), so
    the preconditioner is itself symmetric positive definite and safe
    inside CG.  [shape] gives the
    tensor-grid extents, first dimension fastest-varying — [[|nr; nz|]]
    for the 2-D unit cell, [[|nx; ny; nz|]] for the 3-D stack.

    [Error] on a shape/matrix mismatch or any hierarchy failure, and the
    constructor is a ["precond"] chaos site like {!ic0}.
    [budget] is polled during setup {e and} captured into the returned
    preconditioner: an expiry mid-V-cycle raises
    {!Ttsv_parallel.Budget.Expired} from {!apply_into}, which the Robust
    ladder converts to a typed deadline failure with the best iterate.
    Applications are bitwise deterministic across pool sizes. *)

val mg_levels : t -> int option
(** Number of levels in the multigrid hierarchy; [None] for other
    kinds. *)
