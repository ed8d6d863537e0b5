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

val um2 : float -> float
(** [um2 a] converts µm² to m². *)

val w_per_mm3 : float -> float
(** [w_per_mm3 p] converts a volumetric power density from W/mm³ to
    W/m³ (multiplies by 1e9). *)

val kelvin_of_celsius : float -> float
(** [kelvin_of_celsius t] adds 273.15. *)

val pp_length_um : Format.formatter -> float -> unit
(** Prints a length in metres as e.g. ["5.0 µm"]. *)
