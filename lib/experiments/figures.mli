(** The swept figures: the paper's Figs. 4–7 (§IV) and the plane-count
    extension.

    Each sweeps one geometric parameter and plots Model A, Model B and
    the traditional 1-D model against the FV reference (the paper's
    "FEM").  A figure is a value — a name, a title, an axis, sweep
    points, curves and an optional remark — and one {!run} and one
    {!print} serve them all.  Model A uses the coefficients fitted
    against the FV reference ({!Reference.block_coefficients}), the
    paper's procedure. *)

type t

val name : t -> string
(** The artefact name (["fig4"], …, ["nplanes"]): the CLI's name for the
    figure, its span ["experiment.<name>"] and its checkpoint stages'
    prefix. *)

val fig4 : t
(** Fig. 4 — maximum temperature rise vs. TTSV radius.

    Sweep: r from 1 µm to 20 µm with the paper's aspect-ratio
    accommodation (t_Si2,3 jumps from 5 µm to 45 µm above r = 5 µm).
    Curves: Model A, Model B(100), the 1-D model and the FV reference.

    Expected shape (paper): ΔT decreases monotonically with r within
    each substrate-thickness regime; Model A and B track the reference
    within a few percent while the 1-D model errs most at high aspect
    ratio (small r). *)

val fig5 : t
(** Fig. 5 — maximum temperature rise vs. dielectric liner thickness.

    Sweep: {!liners_um} at r = 5 µm, t_D = 7 µm, t_b = 1 µm,
    t_Si2,3 = 45 µm.  Curves: Model A, Model B at each of
    {!segment_counts}, the 1-D model and the FV reference.

    Expected shape (paper): ΔT grows roughly like ln t_L (through
    R3/R6/R9); the 1-D curve is {e flat} — the traditional model has no
    liner at all, which is the central point of the paper; Model B's
    accuracy improves monotonically with the segment count. *)

val fig6 : t
(** Fig. 6 — maximum temperature rise vs. substrate thickness.

    Sweep: t_Si2 = t_Si3 from 5 µm to 80 µm at r = 8 µm, t_L = 1 µm,
    t_D = 7 µm, t_b = 1 µm.  Curves as {!fig4}; its remark names each
    curve's minimum ({!minimum_of}).

    Expected shape (paper): ΔT is {e non-monotonic} — decreasing while
    the growing substrate improves lateral access to the TTSV (the
    R6/R9 liner resistances fall with span), then increasing once the
    added vertical resistance dominates; the 1-D model, blind to the
    lateral path, is strictly monotonic.  Both the non-monotonicity of
    A/B/FV and the monotonicity of 1-D are asserted by the test suite. *)

val fig7 : t
(** Fig. 7 — maximum temperature rise vs. number of TTSVs.

    A single r₀ = 10 µm TTSV is divided into n ∈ {!divisions} vias of
    equal total metal area (§IV-D, eq. 22).  Curves: Model A with the
    eq. 22 liner update, Model B(100) with the same update on its rungs,
    the 1-D model (necessarily flat: the metal area never changes), and
    the FV reference on each sub-via's 1/n-area unit cell ({!subcell}).

    Expected shape (paper): ΔT decreases with n with saturating gains. *)

val nplanes : t
(** Plane-count scaling (the §II closing remark, exercised).

    The paper's models are presented on three planes and stated to
    "extend to any number of planes": Max ΔT of {!stack_with_planes} for
    each of {!plane_counts}, Model A (fitted on the 3-plane block),
    Model B(100), the 1-D model and the FV reference.

    Expected shape: superlinear growth with the plane count — each plane
    adds both heat and resistance in series — with the model-vs-FV error
    staying bounded as N grows (the extension stays valid). *)

val all : t list
(** [fig4; fig5; fig6; fig7; nplanes]. *)

val run :
  ?resolution:int ->
  ?pool:Ttsv_parallel.Pool.t ->
  ?checkpoint:Checkpoint.t ->
  t ->
  Report.figure
(** [run fig] computes every curve inside the span
    ["experiment.<name>"]: the Model A coefficients first, then each
    curve over the sweep points in order.  [resolution] meshes the FV
    reference; [pool] evaluates the sweep points concurrently, results
    in sweep order.  [checkpoint] makes the figure resumable: every
    curve is its own stage (["fig5.model_a"], ["fig5.model_b_100"],
    ["fig5.model_1d"], ["fig5.fv"], …), and completed points are loaded
    instead of re-solved, so a resumed figure is identical to an
    uninterrupted one. *)

val print :
  ?resolution:int ->
  ?pool:Ttsv_parallel.Pool.t ->
  ?checkpoint:Checkpoint.t ->
  Format.formatter ->
  t ->
  unit
(** Runs and renders the figure: its table, the error summary against
    the FV curve, its remark if any, then an ASCII plot. *)

val liners_um : float list
(** Fig. 5's sweep points, which Table I and the coefficient ablation
    share. *)

val segment_counts : int list
(** Fig. 5's Model B variants: 1, 20, 100, 500. *)

val divisions : int list
(** Fig. 7's via counts: 1, 2, 4, 9, 16. *)

val subcell : Ttsv_geometry.Stack.t -> int -> Ttsv_geometry.Stack.t
(** [subcell stack n] is the 1/n-area axisymmetric unit cell around one
    of the n sub-vias of [stack]'s divided TTSV — the axisymmetric
    equivalent of the paper's clustered layout (see DESIGN.md). *)

val plane_counts : int list

val stack_with_planes : int -> Ttsv_geometry.Stack.t
(** The N-plane version of the Fig. 5 midpoint geometry: its first plane,
    then its upper plane repeated.  Raises [Invalid_argument] below two
    planes. *)

val minimum_of : Report.figure -> string -> float
(** [minimum_of fig label] is the sweep point where the labelled series
    attains its minimum — for Fig. 6, the crossover thickness discussed
    in §IV-C. *)
