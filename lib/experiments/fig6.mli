(** Fig. 6 — maximum temperature rise vs. substrate thickness.

    Sweep: t_Si2 = t_Si3 from 5 µm to 80 µm at r = 8 µm, t_L = 1 µm,
    t_D = 7 µm, t_b = 1 µm.

    Expected shape (paper): ΔT is *non-monotonic* — decreasing while
    the growing substrate improves lateral access to the TTSV (the
    R6/R9 liner resistances fall with span), then increasing once the
    added vertical resistance dominates; the 1-D model, blind to the
    lateral path, is strictly monotonic.  Both the non-monotonicity of
    A/B/FV and the monotonicity of 1-D are asserted by the test suite. *)

val thicknesses_um : float list

val run :
  ?resolution:int ->
  ?pool:Ttsv_parallel.Pool.t ->
  ?checkpoint:Checkpoint.t ->
  unit ->
  Report.figure
(** [pool] evaluates the sweep points concurrently, results in sweep
    order.  [checkpoint] makes the figure resumable, as {!Fig5.run}
    does: every curve is its own stage (["fig6.model_a"],
    ["fig6.model_b_100"], ["fig6.model_1d"], ["fig6.fv"]). *)

val print :
  ?resolution:int ->
  ?pool:Ttsv_parallel.Pool.t ->
  ?checkpoint:Checkpoint.t ->
  Format.formatter ->
  unit ->
  unit

val minimum_of : Report.figure -> string -> float
(** [minimum_of fig label] is the sweep point (µm) where the labelled
    series attains its minimum — the crossover thickness discussed in
    §IV-C. *)
