(** Cell-shape and cluster-layout ablations with the 3-D Cartesian solver.

    The axisymmetric reference maps the paper's square unit cell to an
    area-equivalent cylinder (the substitution documented in DESIGN.md).
    These experiments quantify that substitution with the 3-D solver,
    which keeps the square cell and the true via layout:

    1. {b cell shape} — Max ΔT of the Fig. 5 midpoint geometry: square
       3-D cell vs. equivalent cylinder vs. the analytical models;
    2. {b cluster layout} — Fig. 7's division series with the actual
       √n × √n via array in one square cell (what the paper's FEM
       solved) vs. the axisymmetric 1/n-sub-cell approximation vs. the
       eq. 22 analytical model. *)

val cell_shape : ?resolution:int -> unit -> Report.table
(** One row per solver/model with Max ΔT and the deviation from the 3-D
    square-cell solution. *)

val cluster_layout : ?resolution:int -> unit -> Report.figure
(** The Fig. 7 series at divisions 1, 4, 9, 16 (perfect squares,
    as the 3-D layout requires). *)

val print : ?resolution:int -> Format.formatter -> unit -> unit
