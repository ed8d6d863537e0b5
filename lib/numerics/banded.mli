(** Banded linear systems.

    Model B's π-segment ladder produces matrices whose bandwidth is the
    node-numbering distance between the two rails (2 for the interleaved
    numbering used by {!Ttsv_core.Model_b}); a banded LU solves them in
    O(n·bw²) instead of O(n³).

    Storage is the LAPACK-style band layout, flattened row by row into
    one float array: entry [(i, j)] with [|i - j| <= bw] lives at
    [band.(i * (2 * bw + 1) + j - i + bw)]. *)

type t = private { n : int; bw : int; band : float array }
(** The record is readable so that an assembler can accumulate straight
    into [band] in the layout above: called from another module, {!add_to}
    boxes its float argument. *)

val create : n:int -> bw:int -> t
(** [create ~n ~bw] is an [n x n] zero matrix with half-bandwidth [bw]. *)

val order : t -> int

val bandwidth : t -> int

val get : t -> int -> int -> float
(** [get m i j] is the entry at [(i, j)]; [0.] outside the band. *)

val set : t -> int -> int -> float -> unit
(** [set m i j x] writes inside the band; raises [Invalid_argument] when
    [(i, j)] lies outside it. *)

val add_to : t -> int -> int -> float -> unit
(** Accumulating variant of {!set}. *)

val of_dense : bw:int -> Dense.t -> t
(** [of_dense ~bw m] copies the band of a dense matrix; raises
    [Invalid_argument] if [m] has nonzeros outside the band. *)

val to_dense : t -> Dense.t

val mat_vec : t -> Vec.t -> Vec.t

val solve : t -> Vec.t -> Vec.t
(** [solve m b] performs an in-band Gaussian elimination *without
    pivoting* — valid for the diagonally dominant conductance matrices this
    library builds — on copies of [m]'s band and of [b], which it leaves
    unchanged.  O(n·bw²) flops over the flat band.  Raises
    {!Dense.Singular} when a pivot underflows or is not finite. *)
