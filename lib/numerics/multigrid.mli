(** Geometric multigrid V-cycles for structured tensor grids.

    The FV discretisations all live on tensor-product grids — the 2-D
    r–z unit cell ([Grid], shape [|nr; nz|]) and the 3-D chip stack
    ([Grid3], shape [|nx; ny; nz|]) — indexed with the first dimension
    varying fastest.  That structure makes geometric coarsening trivial:
    no aggregation heuristics, just cell-centred coarsening by two along
    the strongly coupled dimension.

    A hierarchy built here is used as a preconditioner (one symmetric
    V(ν,ν) cycle per application, see {!Precond.mg}): Chebyshev
    smoothing with equal pre- and post-sweep degrees and Galerkin coarse
    operators [Ac = Pᵀ A P] keep the cycle a symmetric positive-definite
    operator, so it is safe inside CG.  Every kernel in the cycle —
    smoothing polynomials, per-line solves, residuals, grid transfers
    (stored as sparse matrices), corrections — is an embarrassingly
    parallel map, a set of independent line solves or a {!Sparse.mul},
    so unlike the IC(0) triangular sweeps the whole preconditioner
    runs through {!Ttsv_parallel.Pool} and stays bitwise deterministic
    for any domain count.

    Robustness on the anisotropic, graded, coefficient-jumping grids
    comes from three choices working together:

    - {e Semicoarsening}: per-dimension coupling strengths are measured
      from the matrix stencil (off-diagonal mass at ±1 steps along each
      dimension) and only the strongest-coupled dimension is coarsened
      on each level — on the r–z grids the graded radial spacings
      dominate, so the radial extent shrinks first while the axial
      direction rides along at full resolution until radial coupling is
      exhausted.
    - {e Operator-induced interpolation}: each fine cell interpolates
      from its two coarse parents weighted by the fine-grid couplings
      toward each, which encode both the graded spacings and the
      conductivity jumps that positional 3/4–1/4 weights get wrong.
    - {e Line smoothing}: the smoother's inner preconditioner is the
      block diagonal of whole grid lines along the strongest uncoarsened
      dimension (banded LU per line, every line independent), wrapped in
      a Chebyshev polynomial.  A line solve damps every mode that is
      oscillatory along the coarsened dimension by a bounded factor
      {e whatever the local anisotropy} — the property point smoothers
      lose on grids whose strong direction varies from region to region
      (the liner annulus, the thin stacked layers).  Levels with no
      second dimension left fall back to the point diagonal. *)

type t
(** An immutable multigrid hierarchy for one SPD matrix. *)

val build :
  ?pool:Ttsv_parallel.Pool.t ->
  ?budget:Ttsv_parallel.Budget.t ->
  ?max_levels:int ->
  ?coarse_cap:int ->
  ?nu:int ->
  shape:int array ->
  Sparse.t ->
  (t, string) result
(** [build ~shape a] constructs the hierarchy for [a], whose rows are
    the cells of a tensor grid of extents [shape] (first dimension
    fastest-varying, so [Array.fold_left ( * ) 1 shape = rows a]).
    Levels are added until the coarsest system has at most [coarse_cap]
    cells (default 200; it is then LU-factored once, dense) or
    [max_levels] (default 32) is reached.  [nu] (default 2) is the
    degree of the Chebyshev smoothing polynomial, applied identically
    pre- and post-correction — the cycle is V(ν,ν) by construction so
    the preconditioner stays symmetric positive definite.

    Setup is sequential where summation order matters (the Galerkin
    triple products), so the hierarchy is identical whatever [pool] is
    supplied; [budget] is polled between levels and makes [build] return
    [Error "budget expired (..)"] rather than overrun a deadline.

    Returns [Error _] (never raises) on shape/matrix mismatch, a zero
    diagonal entry on any level, or a singular coarsest operator.
    Raises [Invalid_argument] only for genuine programming errors:
    [nu < 1], [max_levels < 1], [coarse_cap < 1]. *)

val cycle : ?pool:Ttsv_parallel.Pool.t -> t -> Vec.t -> Vec.t
(** [cycle mg r] applies one symmetric V(ν,ν) cycle to the residual [r]
    — i.e. computes [M⁻¹ r] for the multigrid preconditioner [M].  The
    budget captured at {!build} time is polled once per level on the way
    down and ticked per matrix-vector product; expiry raises
    {!Ttsv_parallel.Budget.Expired} mid-cycle, which {!Robust.solve}
    turns into a typed [Deadline_exceeded] carrying the best iterate.
    Bitwise deterministic across pool sizes. *)

val num_levels : t -> int
(** Number of levels in the hierarchy, finest first (at least 1). *)

val level_shape : t -> int -> int array
(** [level_shape mg l] is the tensor-grid extents of level [l]
    (a fresh copy; [l = 0] is the finest level). *)

val level_matrix : t -> int -> Sparse.t
(** [level_matrix mg l] is the (Galerkin) operator on level [l]. *)

val restrict : ?pool:Ttsv_parallel.Pool.t -> t -> level:int -> Vec.t -> Vec.t
(** [restrict mg ~level v] maps a fine vector on [level] to [level + 1]
    via [Pᵀ].  Raises [Invalid_argument] on the coarsest level. *)

val prolong : ?pool:Ttsv_parallel.Pool.t -> t -> level:int -> Vec.t -> Vec.t
(** [prolong mg ~level v] maps a coarse vector on [level + 1] up to
    [level] via [P] — the exact transpose of {!restrict}, making the
    pair adjoint: [⟨P xc, yf⟩ = ⟨xc, Pᵀ yf⟩]. *)

val smooth :
  ?pool:Ttsv_parallel.Pool.t -> t -> level:int -> sweeps:int -> Vec.t -> Vec.t -> Vec.t
(** [smooth mg ~level ~sweeps x b] applies the level's degree-[sweeps]
    Chebyshev smoothing polynomial to [a x = b] from iterate [x] (not
    mutated; a fresh vector is returned; [sweeps = 0] returns [x]
    unchanged).  Exposed for the convergence property tests. *)
