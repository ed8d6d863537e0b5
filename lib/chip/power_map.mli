(** Tile-resolved power maps.

    The full-chip compact model divides each plane into an nx × ny grid of
    tiles; a power map assigns the wattage each tile dissipates.  Maps are
    immutable; builders cover uniform floor power and rectangular
    hotspots. *)

type t
(** A power map over a fixed tile grid, in watts per tile. *)

val uniform : nx:int -> ny:int -> total:float -> t
(** [uniform ~nx ~ny ~total] spreads [total] watts evenly.  [nx], [ny]
    must be positive and [total] nonnegative. *)

val zero : nx:int -> ny:int -> t
(** No power anywhere. *)

val add_hotspot : t -> x0:int -> y0:int -> x1:int -> y1:int -> watts:float -> t
(** [add_hotspot m ~x0 ~y0 ~x1 ~y1 ~watts] adds [watts] spread uniformly
    over the inclusive tile rectangle — a block of logic lighting up.
    Bounds are clamped to the grid; the rectangle must be nonempty. *)

val nx : t -> int

val ny : t -> int

val get : t -> int -> int -> float
(** [get m x y] is the tile's wattage.  Raises [Invalid_argument] out of
    range. *)

val total : t -> float
(** Sum over all tiles, W. *)
