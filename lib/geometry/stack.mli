(** An N-plane 3-D IC stack with a single (representative) TTSV.

    The stack describes the unit cell the paper analyzes: a footprint of
    area A₀ containing one TTSV, with plane 1 adjacent to the heat sink at
    its bottom surface (the temperature reference).  Multi-TTSV circuits
    are analyzed by tiling unit cells ({!cells_for_density}) or through
    the cluster model in {!Ttsv_core.Cluster}. *)

type t = {
  footprint : float;  (** unit-cell footprint area A₀, m² *)
  planes : Plane.t array;  (** plane 1 (index 0) is adjacent to the heat sink *)
  tsv : Tsv.t;
  sink_temperature : float;  (** heat-sink (bottom-surface) temperature, °C; reference only *)
}

val make :
  ?sink_temperature:float -> footprint:float -> planes:Plane.t list -> tsv:Tsv.t -> unit -> t
(** [make ~footprint ~planes ~tsv ()] validates and builds a stack:
    at least one plane; the first plane must have [t_bond = 0] and a
    substrate deep enough for the TSV extension; every other plane needs
    [t_bond > 0]; the TSV (with liner) must fit inside the footprint.
    [sink_temperature] defaults to 27 °C as in the paper.
    Raises [Invalid_argument] when a constraint fails. *)

val num_planes : t -> int

val plane : t -> int -> Plane.t
(** [plane s i] is the [i]-th plane, 0-based from the heat sink. *)

val silicon_area : t -> float
(** [silicon_area s] is A = A₀ − π(r + t_L)², the substrate area next to
    the TTSV (paper eq. 7). *)

val total_height : t -> float
(** Sum of all plane heights. *)

val heat_inputs : t -> Ttsv_numerics.Vec.t
(** [heat_inputs s] is the per-plane heat vector [q_i] in watts over the
    unit-cell footprint (device + ILD heat, paper's q₁…q_N).  Devices are
    displaced by the TTSV in every plane ([silicon_area] generates device
    heat) and interconnects in every ILD the TTSV crosses (all but the
    top plane's). *)

val total_heat : t -> float
(** Sum of {!heat_inputs}. *)

val with_tsv : t -> Tsv.t -> t
(** Replaces the TTSV, re-validating. *)

val map_planes : t -> (int -> Plane.t -> Plane.t) -> t
(** [map_planes s f] rebuilds the stack with planes [f i p]. *)

val cells_for_density : footprint_total:float -> density:float -> tsv:Tsv.t -> int * float
(** [cells_for_density ~footprint_total ~density ~tsv] sizes a uniform
    TTSV array: given a full-circuit footprint and a TTSV area density
    (e.g. 0.005 for the paper's 0.5 %), returns [(count, cell_area)] such
    that [count] TTSVs at one per cell of area [cell_area] tile the
    circuit with that metal density.  Raises [Invalid_argument] for
    nonpositive inputs or densities ≥ 1. *)

val pp : Format.formatter -> t -> unit
