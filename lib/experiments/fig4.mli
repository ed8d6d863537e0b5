(** Fig. 4 — maximum temperature rise vs. TTSV radius.

    Sweep: r from 1 µm to 20 µm with the paper's aspect-ratio
    accommodation (t_Si2,3 jumps from 5 µm to 45 µm above r = 5 µm).
    Curves: Model A (coefficients fitted against the FV reference, the
    paper's procedure), Model B(100), the traditional 1-D model, and the
    FV reference itself.

    Expected shape (paper): ΔT decreases monotonically with r within
    each substrate-thickness regime; Model A and B track the reference
    within a few percent while the 1-D model errs most at high aspect
    ratio (small r). *)

val radii_um : float list
(** The sweep points in micrometres. *)

val run :
  ?resolution:int ->
  ?pool:Ttsv_parallel.Pool.t ->
  ?checkpoint:Checkpoint.t ->
  unit ->
  Report.figure
(** [run ()] computes every curve ([resolution] meshes the FV
    reference; [pool] evaluates the sweep points concurrently with
    results in sweep order).  [checkpoint] makes the figure resumable,
    as {!Fig5.run} does: every curve is its own stage (["fig4.model_a"],
    ["fig4.model_b_100"], ["fig4.model_1d"], ["fig4.fv"]). *)

val print :
  ?resolution:int ->
  ?pool:Ttsv_parallel.Pool.t ->
  ?checkpoint:Checkpoint.t ->
  Format.formatter ->
  unit ->
  unit
(** Runs and renders the figure followed by its error summary. *)
