(** Full-chip compact thermal model (extension beyond the paper).

    The paper analyzes one TTSV unit cell; real floorplans have non-uniform
    power and non-uniform via allocation.  This module tiles a unit-cell
    stack's planes into an nx × ny grid and builds the compact network the
    paper's related work ([10], [11]) describes, with the paper's TTSV
    model embedded in every tile:

    - per tile, the unit cell's eq. 1–6 network as {!Ttsv_core.Model_a.walk}
      stamps it, with the eq. 7–16 values of
      {!Ttsv_core.Resistances.cell} over the tile's area: R_s to the
      isothermal heat sink, the bulk chain, and the TTSV chain with its
      liner rungs where the tile has vias, the tile's via count entering
      as parallel conductance;
    - per plane, lateral silicon-spreading resistors between adjacent
      tiles (and between the thick first-substrate nodes).

    The via count per tile is real-valued: a density is a continuous
    design variable for the allocator, and conductances scale linearly in
    it.  A single-tile chip with one via degenerates exactly to Model A —
    a property the test suite checks over the validated geometry
    ranges. *)

type t = {
  width : float;  (** chip extent in x, m *)
  height : float;  (** chip extent in y, m *)
  nx : int;
  ny : int;
  stack : Ttsv_geometry.Stack.t;
      (** the unit cell every tile repeats: its planes (power fields
          unused) and its TTSV, used wherever the density is positive;
          its footprint and sink temperature are unused *)
  coeffs : Ttsv_core.Coefficients.t;
}

val make :
  ?coeffs:Ttsv_core.Coefficients.t ->
  width:float ->
  height:float ->
  nx:int ->
  ny:int ->
  Ttsv_geometry.Stack.t ->
  t
(** [make ~width ~height ~nx ~ny stack] tiles [stack]'s planes and TTSV
    over a [width] × [height] chip of [nx] × [ny] tiles.  Raises
    [Invalid_argument] unless the extent is positive and the grid at
    least 1 × 1; the plane and TTSV rules are {!Ttsv_geometry.Stack}'s,
    already checked when the stack was made. *)

type densities = float array
(** Row-major per-tile TTSV area density (fraction of the tile's area that
    is via metal), length [nx * ny]. *)

val uniform_density : t -> float -> densities
(** [uniform_density chip d] is [d] everywhere; [0 <= d < 1]. *)

type result = {
  grid_nx : int;  (** tiles per row, for indexing [rises] *)
  rises : float array array;  (** [rises.(plane).(y * grid_nx + x)] bulk rise, K *)
  max_rise : float;
  hottest : int * int * int;  (** (plane, x, y) of the peak *)
  sink_heat : float;  (** total heat crossing the R_s layer, W *)
}

val solve : t -> densities -> Power_map.t list -> result
(** [solve chip ds power] solves the chip; [power] has one map per plane
    on the chip's grid.  Raises [Invalid_argument] on mismatched grids or
    plane counts, densities outside [0, 1), or vias that no longer fit
    their tile. *)

val rise_at : result -> plane:int -> x:int -> y:int -> float

val pp_plane : result -> plane:int -> Format.formatter -> unit
(** ASCII map of one plane's temperature field ('0'–'9' scaled to the
    global maximum). *)
