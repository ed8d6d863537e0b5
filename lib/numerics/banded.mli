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
(** [solve m b] runs {!solve_in_place} on copies of [m]'s band and of
    [b], which it leaves unchanged, and returns the solution. *)

val solve_in_place : n:int -> bw:int -> float array -> float array -> unit
(** [solve_in_place ~n ~bw a x] eliminates in band, *without pivoting*
    (valid for the diagonally dominant conductance matrices this library
    builds), the order-[n] matrix whose band fills the first
    [n * (2 * bw + 1)] entries of [a] in the layout above.  It overwrites
    them with the factors and the first [n] entries of [x] (the
    right-hand side) with the solution, keeps longer arrays' tails and
    allocates nothing: O(n·bw²) flops.  Raises [Invalid_argument] when
    an array is too short and {!Dense.Singular} when a pivot underflows
    or is not finite, leaving both arrays partly eliminated. *)
