(** The material library used by the paper's experiments.

    Conductivities follow §IV of the paper: SiO₂ 1.4 W/(m·K) for both the
    ILD and the TSV liner, polyimide 0.15 W/(m·K) for the bonding layer,
    copper 400 W/(m·K) for the TSV filler.  The paper does not state the
    silicon conductivity; we use 150 W/(m·K) (bulk Si, the value
    used by Pavlidis & Friedman, the paper's reference [6]).  Volumetric
    heat capacities are standard handbook values and only matter for the
    transient extension. *)

val silicon : Material.t
(** Bulk silicon, k = 150 W/(m·K), ρc = 1.63e6 J/(m³·K). *)

val silicon_k_of_t : Material.t
(** Silicon with the k(T) = 154·(T/300K)^(-4/3) power law (frozen value:
    the law at 300 K) — an optional refinement; the paper and the default
    experiments use constant k. *)

val silicon_dioxide : Material.t
(** SiO₂, k = 1.4 W/(m·K) — the paper's ILD and liner material. *)

val polyimide : Material.t
(** Polyimide adhesive, k = 0.15 W/(m·K) — the paper's bonding layer. *)

val copper : Material.t
(** Copper, k = 400 W/(m·K) — the paper's TSV filler. *)

val tungsten : Material.t
(** Tungsten, k = 173 W/(m·K) — an alternative TSV filler for ablations. *)

val air : Material.t
(** Still air, k = 0.026 W/(m·K). *)

val aluminum : Material.t
(** Aluminum, k = 237 W/(m·K). *)

val benzocyclobutene : Material.t
(** BCB adhesive, k = 0.29 W/(m·K) — an alternative bonding polymer. *)

val all : Material.t list
(** Every material above, for enumeration in CLIs and tests. *)
