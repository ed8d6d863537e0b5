(** Package and ambient boundary (§II's closing remark).

    The paper's models compute rises above the bottom surface of the
    first plane; §II notes that "a voltage source and/or another resistor
    can be included to describe the ambient temperature and/or the
    thermal resistance of the package".  This module is that resistor and
    source: given a package/heat-sink resistance chain and an ambient
    temperature, it converts model rises into absolute junction
    temperatures. *)

type t = {
  ambient : float;  (** ambient temperature, °C *)
  resistance : float;  (** total sink-to-ambient resistance R_pkg, K/W *)
}

val make : ?ambient:float -> resistance:float -> unit -> t
(** [make ~resistance ()] with [ambient] defaulting to 25 °C.
    [resistance] must be nonnegative. *)

val sink_temperature : t -> total_power:float -> float
(** [sink_temperature pkg ~total_power] is the absolute temperature of
    the model's reference surface: ambient + R_pkg·P, °C. *)

val junction_temperature : t -> total_power:float -> model_rise:float -> float
(** [junction_temperature pkg ~total_power ~model_rise] is the absolute
    hottest-node temperature: sink temperature + the model's Max ΔT. *)
