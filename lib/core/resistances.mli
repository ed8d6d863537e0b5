(** The paper's closed-form thermal resistances (eqs. 7–16 and 22).

    This module is the one home of the rule that splits each plane of a
    stack into a TTSV span, a bulk path and, below plane 1, the sink
    path.  Model A stamps the per-plane triples {!of_stack} evaluates;
    the cluster model, Model B, the 1-D model, the transient extension
    and the chip model build from the same pieces:

    - [bulk]  — the vertical resistance of the TTSV's surroundings
      (R1 for the first plane, R4-style for middle planes, R7-style for
      the last plane);
    - [tsv]   — the vertical resistance of the TTSV filler over the same
      span (R2 / R5 / R8);
    - [liner] — the lateral (radial) resistance of the dielectric liner
      (R3 / R6 / R9), i.e. the closed form of the eq. 9 integral.

    Spans follow the paper exactly: the first plane covers its ILD plus
    the TSV extension [l_ext]; middle planes cover bond + substrate +
    ILD; the last plane's [bulk] covers bond + substrate + ILD but its
    [tsv] and [liner] cover only bond + substrate because the TTSV stops
    at the top of the last substrate (eqs. 13–15).  The remaining
    first-plane substrate below the TSV tip is [r_sink] (eq. 16, R_s).

    Every piece takes the fitting coefficients as [?coeffs], defaulting
    to {!Coefficients.unity}; multiplying by k1 = k2 = 1 is exact, so
    the coefficient-free models get the same bits as a hand-written
    formula without them. *)

type triple = {
  bulk : float;  (** vertical resistance of the surroundings, K/W *)
  tsv : float;  (** vertical resistance of the TTSV filler, K/W *)
  liner : float;  (** lateral liner resistance, K/W *)
}

type t = {
  triples : triple array;  (** one triple per plane, index 0 = next to the sink *)
  r_sink : float;  (** R_s, the first-plane substrate bulk below the TSV tip *)
}

val plane_span : Ttsv_geometry.Stack.t -> int -> float
(** [plane_span stack i] is the vertical distance the plane-[i] TTSV
    segment covers (see the spans above) — also the liner length of
    that plane. *)

val substrate_span : Ttsv_geometry.Stack.t -> int -> float
(** [substrate_span stack i] is the substrate part of plane [i]'s bulk
    path: the TSV extension [l_ext] in plane 1, the whole substrate
    above it. *)

val sink_span : Ttsv_geometry.Stack.t -> float
(** [sink_span stack] is the first-plane substrate below the TSV tip,
    t_Si1 − l_ext: the length of R_s. *)

val bulk_layers : Ttsv_geometry.Stack.t -> int -> float
(** [bulk_layers stack i] is Σ t/k over plane [i]'s bulk path (ILD,
    {!substrate_span}, bond), in K·m²/W: the plane's [bulk] resistance
    times its cross-section (eqs. 7, 10, 13). *)

val sink : ?coeffs:Coefficients.t -> Ttsv_geometry.Stack.t -> footprint:float -> float
(** [sink stack ~footprint] is R_s over a cross-section of [footprint]
    m² (eq. 16). *)

val filler :
  ?coeffs:Coefficients.t -> Ttsv_geometry.Tsv.t -> span:float -> vias:float -> float
(** [filler tsv ~span ~vias] is the vertical resistance of [vias] TTSV
    fillers in parallel over [span] (eqs. 8, 11, 14). *)

val liner :
  ?coeffs:Coefficients.t -> Ttsv_geometry.Tsv.t -> span:float -> vias:float -> float
(** [liner tsv ~span ~vias] is the lateral resistance of [vias] liners
    in parallel over [span], the closed form of the eq. 9 integral. *)

val cluster_liner :
  ?coeffs:Coefficients.t -> Ttsv_geometry.Tsv.t -> span:float -> int -> float
(** [cluster_liner tsv ~span n] is eq. 22: the liner resistance over
    [span] once the TTSV of radius r₀ is divided into [n] vias of radius
    r₀/√n, ln((t_L·√n + r₀)/r₀) / (2·n·π·k₂·k_L·span).  At [n = 1] it
    equals [liner tsv ~span ~vias:1.] bit for bit. *)

val cell :
  ?coeffs:Coefficients.t -> Ttsv_geometry.Stack.t -> footprint:float -> vias:float -> t
(** [cell stack ~footprint ~vias] evaluates eqs. 7–16 for a cell of
    [footprint] m² holding [vias] (real-valued, may be 0) copies of the
    stack's TTSV in parallel, with the stack's planes: each [bulk] over
    footprint − vias·π(r + t_L)², each [tsv] and [liner] over the
    [vias] in parallel ([infinity] when [vias = 0]), R_s over the whole
    [footprint].  Raises [Invalid_argument] when the vias leave no bulk
    cross-section. *)

val of_stack : ?coeffs:Coefficients.t -> Ttsv_geometry.Stack.t -> t
(** [of_stack ?coeffs stack] is {!cell} over the stack's own unit cell:
    its footprint and one via.  Material conductivities are taken from
    each plane's own materials, so heterogeneous stacks are
    supported. *)
