(** SI unit helpers.

    All quantities inside the library are SI: metres, watts, kelvins,
    W/(m·K), W/m³.  The paper (and IC practice) quotes dimensions in
    micrometres and power densities in W/mm³; these helpers perform the
    conversions at the API boundary so the numeric core never mixes
    scales. *)

val um : float -> float
(** [um x] converts micrometres to metres. *)

val mm : float -> float
(** [mm x] converts millimetres to metres. *)

val to_um : float -> float
(** [to_um x] converts metres to micrometres. *)

val to_mm : float -> float
(** [to_mm x] converts metres to millimetres. *)

val um2 : float -> float
(** [um2 a] converts µm² to m². *)

val mm2 : float -> float
(** [mm2 a] converts mm² to m². *)

val w_per_mm3 : float -> float
(** [w_per_mm3 p] converts a volumetric power density from W/mm³ to
    W/m³ (multiplies by 1e9). *)

val w_per_cm2 : float -> float
(** [w_per_cm2 p] converts a surface power density from W/cm² to W/m². *)

val celsius_of_kelvin : float -> float
(** [celsius_of_kelvin t] subtracts 273.15. *)

val kelvin_of_celsius : float -> float
(** [kelvin_of_celsius t] adds 273.15. *)

val pp_length_um : Format.formatter -> float -> unit
(** Prints a length in metres as e.g. ["5.0 µm"]. *)
