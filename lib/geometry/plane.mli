(** One physical plane (tier) of a wafer-bonded 3-D IC.

    Following the paper's Fig. 1, every plane is, from bottom to top: the
    bonding layer that attaches it to the plane below (absent for the
    first plane), the silicon substrate with the active devices at its top
    surface, and the ILD/BEOL layer.  Heat enters through a thin device
    layer at the substrate top and volumetrically in the ILD. *)

type t = {
  t_substrate : float;  (** silicon substrate thickness t_Si, m *)
  t_ild : float;  (** ILD/BEOL thickness t_D, m *)
  t_bond : float;  (** thickness of the bonding layer {e below} this plane, m; 0 for the first plane *)
  t_device : float;  (** thickness of the heat-generating device layer at the substrate top, m *)
  substrate : Ttsv_physics.Material.t;
  ild : Ttsv_physics.Material.t;
  bond : Ttsv_physics.Material.t;
  device_power_density : float;  (** W/m³ deposited in the device layer *)
  ild_power_density : float;  (** W/m³ deposited throughout the ILD *)
}

val make :
  ?t_device:float ->
  ?device_power_density:float ->
  ?ild_power_density:float ->
  t_substrate:float ->
  t_ild:float ->
  t_bond:float ->
  unit ->
  t
(** [make ~t_substrate ~t_ild ~t_bond ()] builds a plane of silicon
    substrate, SiO₂ ILD and polyimide bond (change a material by record
    update).  Defaults: [t_device] 2 µm, zero power.  Thicknesses must
    be positive (bond and device may be zero); [t_device <= t_substrate]
    is enforced. *)

val height : t -> float
(** [height p] is [t_bond + t_substrate + t_ild]. *)

val heat_input : t -> device_area:float -> ild_area:float -> float
(** [heat_input p ~device_area ~ild_area] is the total heat generated by
    the plane in watts: [device_power_density · t_device · device_area +
    ild_power_density · t_ild · ild_area].  The caller passes the areas
    actually generating heat (the TTSV displaces devices and, where it
    crosses the ILD, interconnects — see {!Stack.heat_inputs}). *)

val with_t_substrate : t -> float -> t
(** Updates the substrate thickness, re-validating [t_device]. *)

val with_power : ?device_power_density:float -> ?ild_power_density:float -> t -> t
(** Overrides the power densities (unspecified fields keep their value). *)

val pp : Format.formatter -> t -> unit
