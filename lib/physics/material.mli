(** Thermal materials.

    A material carries the properties the steady-state models need
    (thermal conductivity) plus volumetric heat capacity for the transient
    extension.  Conductivity may optionally be temperature dependent; the
    steady-state solvers evaluate it at the reference temperature. *)

type t = {
  name : string;
  conductivity : float;  (** thermal conductivity k at the reference temperature, W/(m·K) *)
  conductivity_of_t : (float -> float) option;
      (** optional k(T) law, T in kelvin; [None] means constant *)
  volumetric_heat_capacity : float;  (** ρ·c_p, J/(m³·K); used by the transient extension *)
}

val make :
  ?conductivity_of_t:(float -> float) ->
  ?volumetric_heat_capacity:float ->
  name:string ->
  conductivity:float ->
  unit ->
  t
(** [make ~name ~conductivity ()] builds a material.  [conductivity] must
    be positive ([Invalid_argument] otherwise).
    [volumetric_heat_capacity] defaults to [1.6e6] J/(m³·K) (a generic
    solid); provide real values when running transients. *)

val k_at : t -> float -> float
(** [k_at m temp_k] is the conductivity at absolute temperature [temp_k],
    using the k(T) law when present. *)

val with_conductivity : t -> float -> t
(** [with_conductivity m k] is [m] with a new constant conductivity —
    used e.g. to adapt the ILD conductivity to include the embedded metal
    (§IV of the paper). *)

val equal : t -> t -> bool
(** Name and constant-property equality (the k(T) closure is not
    compared). *)
