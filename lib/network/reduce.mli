(** Resistance algebra.

    The two closed forms the traditional 1-D model is built from: the
    axial resistance of the TSV filler, and the parallel reduction of
    that path with the bulk. *)

val parallel : float list -> float
(** [parallel rs] is (Σ 1/rs)⁻¹.  All entries must be positive;
    the empty list raises [Invalid_argument]. *)

val cylinder_axial : length:float -> conductivity:float -> radius:float -> float
(** [cylinder_axial ~length ~conductivity ~radius] is L/(k·πr²), the
    axial resistance of a solid cylinder (TSV filler). *)
