(** Axisymmetric (r–z) structured grids.

    The FEM-substitute solver discretizes the unit cell as a cylinder:
    radial faces from the axis to the cell's outer radius, axial faces
    from the heat sink upward.  This module owns the pure geometry —
    face positions, cell centres, cylindrical face areas and volumes —
    while {!Problem} assigns materials and sources and {!Solver}
    assembles and solves.

    Cells are indexed [(ir, iz)] with [ir] counting radially outward and
    [iz] counting upward; the flattened unknown index is
    [iz * nr + ir]. *)

type t = private {
  r_faces : float array;  (** radial face positions, length nr+1, starting at 0 *)
  z_faces : float array;  (** axial face positions, length nz+1, starting at 0 *)
}

val make : r_faces:float array -> z_faces:float array -> t
(** [make ~r_faces ~z_faces] validates (strictly increasing, starting at
    0, at least one cell each way) and builds the grid. *)

val nr : t -> int
(** Number of radial cells. *)

val nz : t -> int
(** Number of axial cells. *)

val cells : t -> int
(** [nr * nz]. *)

val index : t -> int -> int -> int
(** [index g ir iz] is the flattened cell index. *)

val r_center : t -> int -> float
(** Radial centre of column [ir] (mid-point of its faces). *)

val z_center : t -> int -> float
(** Axial centre of row [iz]. *)

val dz : t -> int -> float
(** Axial extent of row [iz]. *)

val volume : t -> int -> int -> float
(** Cell volume π(r_e² − r_w²)·Δz. *)

val radial_face_area : t -> int -> int -> float
(** [radial_face_area g ir iz] is the area of the face between columns
    [ir] and [ir+1] in row [iz]: 2π·r_face·Δz. *)

val axial_face_area : t -> int -> float
(** [axial_face_area g ir] is the area of a horizontal face of column
    [ir]: π(r_e² − r_w²). *)

val outer_radius : t -> float

val height : t -> float

val refine_interval : float -> float -> int -> float list
(** [refine_interval a b n] is the interior subdivision of [[a, b]] into
    [n] equal cells, returned as the [n−1] interior points — the helper
    the problem builder uses to mesh each material layer. *)

val geometric_interval : float -> float -> int -> float -> float list
(** [geometric_interval a b n ratio] subdivides [[a, b]] into [n] cells
    whose widths grow geometrically by [ratio]; used to coarsen the mesh
    away from the TSV where gradients are mild. *)
