(** Tensor-product Cartesian grids for the 3-D finite-volume solver.

    Unlike the axisymmetric {!Grid}, this grid carries the paper's actual
    validation geometry: a {e square} unit cell with one or more
    cylindrical vias represented by staircase (cell-centre sampled)
    conductivities.  Cells are indexed [(ix, iy, iz)]; the flattened
    unknown index is [((iz * ny) + iy) * nx + ix]. *)

type t = private {
  x_faces : float array;
  y_faces : float array;
  z_faces : float array;
}

val make : x_faces:float array -> y_faces:float array -> z_faces:float array -> t
(** Validates each axis (strictly increasing, starting at 0, at least one
    cell). *)

val nx : t -> int

val ny : t -> int

val nz : t -> int

val cells : t -> int

val index : t -> int -> int -> int -> int
(** [index g ix iy iz] is the flattened cell index. *)

val x_center : t -> int -> float

val y_center : t -> int -> float

val dz : t -> int -> float

val volume : t -> int -> int -> int -> float

val face_area_x : t -> int -> int -> float
(** [face_area_x g iy iz] — area of a face normal to x: Δy·Δz. *)

val face_area_y : t -> int -> int -> float
(** [face_area_y g ix iz] — Δx·Δz. *)

val face_area_z : t -> int -> int -> float
(** [face_area_z g ix iy] — Δx·Δy. *)
