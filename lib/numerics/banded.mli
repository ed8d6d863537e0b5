(** Banded linear systems.

    Model A's network and Model B's π-segment ladder both interleave a
    bulk rail with a TTSV rail, so their conductance matrices have
    half-bandwidth 2; the robust ladder's direct rung factors any narrow
    band the same way.  A banded LU solves them in O(n·bw²) instead of
    O(n³).

    Storage is the LAPACK-style band layout, flattened row by row into
    one float array the caller owns: entry [(i, j)] with [|i - j| <= bw]
    lives at [i * (2 * bw + 1) + j - i + bw].  Callers stamp into that
    array with their own index loops (a cross-module accessor would box
    every float it is passed). *)

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
