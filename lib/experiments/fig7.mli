(** Fig. 7 — maximum temperature rise vs. number of TTSVs.

    A single r₀ = 10 µm TTSV is divided into n ∈ {1, 2, 4, 9, 16} vias
    of equal total metal area (§IV-D, eq. 22).  Curves: Model A with the
    eq. 22 liner update, Model B(100) with the same update on its rungs,
    the 1-D model (necessarily flat: the metal area never changes), and
    the FV reference (each sub-via solved in its 1/n-area unit cell —
    the axisymmetric equivalent of the paper's clustered layout; see
    DESIGN.md).

    Expected shape (paper): ΔT decreases with n with saturating gains. *)

val divisions : int list

val run :
  ?resolution:int ->
  ?pool:Ttsv_parallel.Pool.t ->
  ?checkpoint:Checkpoint.t ->
  unit ->
  Report.figure
(** [pool] evaluates the sweep points concurrently, results in sweep
    order.  [checkpoint] makes the figure resumable, as {!Fig5.run}
    does: every curve is its own stage (["fig7.model_a"],
    ["fig7.model_b_100"], ["fig7.model_1d"], ["fig7.fv"]). *)

val print :
  ?resolution:int ->
  ?pool:Ttsv_parallel.Pool.t ->
  ?checkpoint:Checkpoint.t ->
  Format.formatter ->
  unit ->
  unit
