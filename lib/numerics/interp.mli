(** Piecewise interpolation over tabulated data.

    Used for temperature-dependent material properties and for reading
    values off computed sweep curves (e.g. finding the crossover thickness
    in the Fig. 6 reproduction). *)

type t
(** A piecewise-linear interpolant over strictly increasing abscissae. *)

val create : xs:float array -> ys:float array -> t
(** [create ~xs ~ys] builds an interpolant.  Raises [Invalid_argument] when
    lengths differ, fewer than two points are given, or [xs] is not
    strictly increasing. *)

val of_points : (float * float) list -> t
(** [of_points pts] sorts the points by abscissa and builds the
    interpolant.  Duplicate abscissae raise [Invalid_argument]. *)

val eval : t -> float -> float
(** [eval t x] evaluates with constant extrapolation outside the table. *)
