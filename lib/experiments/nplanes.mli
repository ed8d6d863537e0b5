(** Plane-count scaling (the §II closing remark, exercised).

    The paper's models are presented on three planes and stated to
    "extend to any number of planes"; this experiment exercises that
    extension: Max ΔT of stacks of 2 to 8 planes (the Fig. 5 midpoint
    per-plane geometry and power), for Model A (fitted on the 3-plane
    block), Model B(100), the 1-D model and the FV reference.

    Expected shape: superlinear growth with the plane count — each plane
    adds both heat and resistance in series — with the model-vs-FV error
    staying bounded as N grows (the extension stays valid). *)

val plane_counts : int list

val stack_with_planes : int -> Ttsv_geometry.Stack.t
(** The N-plane version of the Fig. 5 midpoint geometry. *)

val run :
  ?resolution:int ->
  ?pool:Ttsv_parallel.Pool.t ->
  ?checkpoint:Checkpoint.t ->
  unit ->
  Report.figure
(** [pool] evaluates the sweep points concurrently, results in sweep
    order.  [checkpoint] makes the figure resumable, as {!Fig5.run}
    does: every curve is its own stage (["nplanes.model_a"],
    ["nplanes.model_b_100"], ["nplanes.model_1d"], ["nplanes.fv"]). *)

val print :
  ?resolution:int ->
  ?pool:Ttsv_parallel.Pool.t ->
  ?checkpoint:Checkpoint.t ->
  Format.formatter ->
  unit ->
  unit
