(** Temperature-dependent conductivity for Model A (extension).

    Silicon's conductivity falls roughly as T^(−4/3) — about 25 % between
    300 K and 380 K — so a hot stack conducts worse than the constant-k
    models predict.  This module closes that loop for Model A by Picard
    iteration: solve, re-evaluate each plane's material conductivities at
    its own node temperature (substrate and ILD at the bulk node, the
    filler at the TTSV node), rebuild eqs. 7–16, repeat.

    Use materials with a k(T) law (e.g.
    {!Ttsv_physics.Materials.silicon_k_of_t}) in the stack; constant-k
    materials make this equivalent to {!Model_a.solve}. *)

val solve :
  ?coeffs:Coefficients.t ->
  sink_temperature_k:float ->
  Ttsv_geometry.Stack.t ->
  Model_a.result * int
(** [solve ~sink_temperature_k stack] iterates until the Max ΔT changes
    by less than 1e-6 relative between sweeps, up to 50 sweeps
    ([Failure] beyond).  Returns the
    converged result and the sweep count. *)
