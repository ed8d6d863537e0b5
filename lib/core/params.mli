(** The paper's §IV experimental setups as ready-made stacks.

    Two families are used throughout the evaluation:
    - the 100 µm × 100 µm three-plane {!block} that Figs. 4–7 and
      Table I sweep (t_Si1 = 500 µm, l_ext = 1 µm, 27 °C sink, device
      power density 700 W/mm³ in a thin device layer, 70 W/mm³ in the
      ILD, SiO₂ ILD and liner, polyimide bond, copper fill);
    - the 10 mm × 10 mm three-plane DRAM-µP {!case_study} unit cell
      (§IV-E). *)

val device_layer_thickness : float
(** Thickness of the regularized device heat source layer: 1 µm (the
    paper states a volumetric density for a surface source; 1 µm reproduces
    the paper's ΔT ranges; see
    DESIGN.md). *)

val device_power_density : float
(** 700 W/mm³ in W/m³. *)

val ild_power_density : float
(** 70 W/mm³ in W/m³. *)

val block :
  ?r:float ->
  ?t_liner:float ->
  ?t_ild:float ->
  ?t_bond:float ->
  ?t_si23:float ->
  ?t_si1:float ->
  ?l_ext:float ->
  unit ->
  Ttsv_geometry.Stack.t
(** [block ()] is the Fig. 4–7 unit cell; every keyword overrides one of
    the paper's parameters (all in metres).  Defaults: r = 5 µm,
    t_liner = 1 µm, t_ild = 4 µm, t_bond = 1 µm, t_si23 = 45 µm,
    t_si1 = 500 µm, l_ext = 1 µm. *)

val block_checked :
  ?r:float ->
  ?t_liner:float ->
  ?t_ild:float ->
  ?t_bond:float ->
  ?t_si23:float ->
  ?t_si1:float ->
  ?l_ext:float ->
  unit ->
  (Ttsv_geometry.Stack.t, Ttsv_robust.Validate.violation list) result
(** Like {!block}, but every constraint is checked through
    {!Ttsv_robust.Validate} first and {e all} violations are returned at
    once instead of dying on the first [Invalid_argument] — the entry
    point for the CLI and batch sweep drivers facing untrusted input. *)

val fig4_stack : float -> Ttsv_geometry.Stack.t
(** [fig4_stack r] is the Fig. 4 geometry for TTSV radius [r]:
    t_L = 0.5 µm, t_D = 4 µm, t_b = 1 µm, and the paper's aspect-ratio
    accommodation — t_Si2 = t_Si3 = 5 µm for r ≤ 5 µm, 45 µm beyond. *)

val fig5_stack : float -> Ttsv_geometry.Stack.t
(** [fig5_stack t_liner] is the Fig. 5 geometry: r = 5 µm, t_D = 7 µm,
    t_b = 1 µm, t_Si2,3 = 45 µm. *)

val fig6_stack : float -> Ttsv_geometry.Stack.t
(** [fig6_stack t_si] is the Fig. 6 geometry: t_L = 1 µm, t_D = 7 µm,
    t_b = 1 µm, r = 8 µm, substrate thickness [t_si] in planes 2–3. *)

val fig7_stack : unit -> Ttsv_geometry.Stack.t
(** The Fig. 7 geometry: r₀ = 10 µm, t_L = 1 µm, t_D = 4 µm, t_b = 1 µm,
    t_Si2,3 = 20 µm. *)

val block_coeffs : Coefficients.t
(** k1 = 1.3, k2 = 0.55 — the paper's fit for the block experiments. *)

val case_study : unit -> Ttsv_geometry.Stack.t * int
(** [case_study ()] is the §IV-E DRAM-µP system reduced to its per-TTSV
    unit cell, together with the TTSV count: 10 mm × 10 mm footprint,
    three planes with t_Si = 300 µm, t_D = 20 µm, t_b = 10 µm,
    r = 30 µm, t_L = 1 µm, TTSVs at 0.5 % area density, 70 W in the
    processor plane (plane 1, next to the sink) and 7 W in each DRAM
    plane, split evenly across unit cells. *)

val case_study_powers : float array
(** Total per-plane power of the case study in watts: [[|70.; 7.; 7.|]]. *)
