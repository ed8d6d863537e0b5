(** Dividing one TTSV into a cluster of thinner TTSVs (§IV-D, eq. 22).

    A TTSV of radius r₀ is replaced by [n] TTSVs of radius r₀/√n so the
    total metal cross-section is unchanged.  Per the paper, the vertical
    resistances are therefore unchanged (R'_i = R_i for i ∉ {3, 6, 9}),
    while the lateral liner resistances shrink because the total liner
    surface grows:

    R'₃ = ln((t_L·√n + r₀)/r₀) / (2·n·π·k₂·k_L·span)   (eq. 22)

    and similarly for R'₆, R'₉. *)

val divided_resistances : ?coeffs:Coefficients.t -> Ttsv_geometry.Stack.t -> int -> Resistances.t
(** [divided_resistances ?coeffs stack n] evaluates eqs. 7–16 for the
    stack's TTSV, then rewrites the liner entries with
    {!Resistances.cluster_liner} (eq. 22) for a division into [n]
    parts.  [n = 1] gives the plain resistances, bit for bit.
    Raises [Invalid_argument] for [n < 1]. *)

val solve : ?coeffs:Coefficients.t -> Ttsv_geometry.Stack.t -> int -> Model_a.result
(** [solve ?coeffs stack n] runs Model A on {!divided_resistances}. *)

val solve_naive : ?coeffs:Coefficients.t -> Ttsv_geometry.Stack.t -> int -> Model_a.result
(** Ablation variant: instead of eq. 22, rebuilds the unit cell with the
    TTSV radius set to r₀/√n and vertical/lateral resistances recomputed
    from first principles with all [n] vias in parallel (including the
    larger displaced silicon area): {!Resistances.cell} with [n] thin
    vias.  Comparing against {!solve} isolates what eq. 22's "vertical
    resistances unchanged" approximation costs.  [n = 1] is
    {!Model_a.solve}, bit for bit.  Raises [Invalid_argument] for
    [n < 1] or when the [n] vias no longer fit the footprint. *)
