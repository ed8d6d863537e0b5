(** 3-D Cartesian heat-conduction problems — the paper's actual COMSOL
    geometry: a square unit cell with cylindrical TTSVs.

    Where the axisymmetric {!Problem} maps the square footprint to an
    area-equivalent cylinder around a single centred via, this builder
    keeps the square cell and places any number of vias at arbitrary
    (x, y) centres, sampling the filler/liner cylinders at cell centres
    (a staircase representation whose error vanishes with resolution).
    It exists to (a) quantify the cylinder-cell substitution documented
    in DESIGN.md and (b) solve Fig. 7's via {e clusters} with their true
    layout, as the paper's FEM did.

    Sources are deposited as in {!Problem}: device and crossed-ILD heat
    outside every via's outer radius, top-plane ILD heat everywhere; each
    heated slab is then normalized so its wattage matches the analytic
    {!Ttsv_geometry.Stack.heat_inputs} exactly, making Max ΔT comparisons
    between solvers and models meaningful at any staircase resolution. *)

type t = {
  grid : Grid3.t;
  conductivity : float array;  (** per cell, W/(m·K), indexed by {!Grid3.index} *)
  source : float array;  (** per cell, W *)
}

val make : grid:Grid3.t -> conductivity:float array -> source:float array -> t
(** Validated direct constructor (tests). *)

val of_stack :
  ?resolution:int ->
  ?via_centers:(float * float) list ->
  ?pool:Ttsv_parallel.Pool.t ->
  Ttsv_geometry.Stack.t ->
  t
(** [of_stack ?resolution ?via_centers stack] builds the square-cell
    problem.  The cell is [s × s] with [s = √footprint].  [via_centers]
    (metres, relative to the cell's corner) defaults to one via at the
    centre; every via uses the stack's TSV geometry and must lie inside
    the cell.  [resolution] scales both the lateral grid (24·resolution
    cells per side) and the axial {!Layers} meshing.  [pool] fills the
    conductivity/source fields per-chunk across a domain pool; the
    chunk-deterministic power reduction makes the pooled build bitwise
    identical to the sequential one. *)

val grid_centers_for_cluster : Ttsv_geometry.Stack.t -> int -> (float * float) list
(** [grid_centers_for_cluster stack n] lays the √n × √n regular array of
    via centres the Fig. 7 cluster experiment uses ([n] must be a perfect
    square; raises [Invalid_argument] otherwise). *)

val total_source : t -> float
