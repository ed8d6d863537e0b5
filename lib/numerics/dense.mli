(** Dense matrices and direct linear solvers.

    Matrices are stored row-major.  The factorization behind {!solve} is LU
    with partial pivoting, which is robust for the small, well-conditioned
    conductance matrices produced by the lumped thermal models.  Matrices of
    order up to a few thousand are practical; larger systems should use
    {!Sparse} with {!Iterative.cg}. *)

type t
(** A mutable [rows x cols] matrix of floats. *)

exception Singular
(** Raised by factorization and solve routines when a pivot underflows,
    i.e. the matrix is (numerically) singular. *)

val create : int -> int -> t
(** [create rows cols] is a zero matrix. *)

val identity : int -> t
(** [identity n] is the [n x n] identity. *)

val of_arrays : float array array -> t
(** [of_arrays a] copies a row-major array-of-rows.  All rows must have the
    same length. *)

val init : int -> int -> (int -> int -> float) -> t
(** [init rows cols f] fills entry [(i, j)] with [f i j]. *)

val rows : t -> int
val cols : t -> int

val get : t -> int -> int -> float
(** [get m i j] is the entry at row [i], column [j]. *)

val set : t -> int -> int -> float -> unit
(** [set m i j x] writes entry [(i, j)]. *)

val add_to : t -> int -> int -> float -> unit
(** [add_to m i j x] accumulates [x] into entry [(i, j)]; the fundamental
    stamping operation for assembling conductance matrices. *)

val copy : t -> t

val mat_vec : t -> Vec.t -> Vec.t
(** [mat_vec m x] is the product [m * x]. *)

type lu
(** An LU factorization with its pivot permutation, reusable across multiple
    right-hand sides. *)

val lu_factor : t -> lu
(** [lu_factor m] factors square [m].  Raises {!Singular} if a pivot is
    smaller than [1e-300] in absolute value.  [m] is not modified. *)

val lu_solve : lu -> Vec.t -> Vec.t
(** [lu_solve f b] solves [A x = b] given [f = lu_factor A]. *)

val solve : t -> Vec.t -> Vec.t
(** [solve a b] factors and solves in one call. *)

val approx_equal : ?rtol:float -> ?atol:float -> t -> t -> bool
(** Elementwise closeness with the same semantics as {!Vec.approx_equal}. *)

val is_symmetric : ?tol:float -> t -> bool
(** [is_symmetric ?tol m] checks [|m(i,j) - m(j,i)| <= tol * max_abs m].
    Default [tol = 1e-10]. *)
