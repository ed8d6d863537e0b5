(** Thermal through-silicon via geometry.

    A TTSV is a cylindrical metal filler of radius [r] wrapped in a
    dielectric liner of thickness [t_L]; in the first plane it extends a
    distance [l_ext] below the ILD into the silicon substrate (the paper's
    Fig. 1/2 structure). *)

type t = {
  radius : float;  (** filler radius r, m *)
  liner_thickness : float;  (** liner thickness t_L, m *)
  extension : float;  (** first-plane extension into the substrate l_ext, m *)
  filler : Ttsv_physics.Material.t;  (** filler material, e.g. copper *)
  liner : Ttsv_physics.Material.t;  (** liner material, e.g. SiO₂ *)
}

val make : ?extension:float -> radius:float -> liner_thickness:float -> unit -> t
(** [make ~radius ~liner_thickness ()] builds a TTSV with copper filler and
    SiO₂ liner (change a material by record update), [extension]
    defaulting to 0.  All lengths are in
    metres; [radius] and [liner_thickness] must be positive and
    [extension] nonnegative ([Invalid_argument] otherwise). *)

val outer_radius : t -> float
(** [outer_radius t] is [radius + liner_thickness]. *)

val fill_area : t -> float
(** [fill_area t] is the metal cross-section π·r². *)

val occupied_area : t -> float
(** [occupied_area t] is π·(r + t_L)² — the silicon area displaced by the
    TTSV including its liner (the paper's A = A₀ − π(r + t_L)²
    correction). *)

val with_radius : t -> float -> t
(** [with_radius t r] updates the radius (for sweeps). *)

val with_liner_thickness : t -> float -> t
(** [with_liner_thickness t tl] updates the liner thickness. *)

val divide : t -> int -> t
(** [divide t n] is the equal-metal-area division of §IV-D: one TTSV of
    radius r₀ becomes [n] TTSVs of radius r₀/√n, same liner thickness.
    Requires [n >= 1]. *)

val pp : Format.formatter -> t -> unit
