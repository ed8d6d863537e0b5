(** Model A — the paper's lumped compact resistive network (§II).

    Every plane contributes one bulk node (the paper's T1, T3, T5) and,
    except the last plane, one TTSV node (T2, T4); the network follows
    eqs. 1–6:

    - the bulk nodes form a vertical chain through the [bulk] resistances
      (R1, R4, R7);
    - the TTSV nodes form a parallel chain through the [tsv] resistances
      (R2, R5);
    - each plane couples its bulk node to its TTSV node through the
      lateral [liner] resistance (R3, R6);
    - the last plane's TTSV segment reaches the top bulk node through
      [tsv] and [liner] in series (R8 + R9, eq. 1);
    - the first plane's substrate connects everything to the heat sink
      through R_s (eq. 6).

    Heat q_i enters at each bulk node.  Works for any number of planes
    (≥ 1), as the paper's §II closing remark describes.

    {!walk} is the one place that lists these resistors.  With the two
    rails interleaved the network is a band of half-width 2, like Model
    B's ladder: Model A and the transient extension stamp it into a flat
    band and solve it with {!Ttsv_numerics.Banded.solve_in_place}, and
    the chip model stamps it into every tile of its circuit. *)

type result = {
  t0 : float;  (** rise of the node above R_s (the paper's T0), K *)
  bulk : float array;  (** per-plane bulk-node rises (T1, T3, T5, …), K *)
  tsv : float array;  (** per-plane TTSV-node rises (T2, T4, …), length N−1, K *)
  tsv_heat : float;
      (** heat the TTSV branch carries at its foot, W: the flow from the
          first TTSV node down its filler into T0, (T2 − T0)/R2, or on a
          single plane the flow from the bulk node down filler + liner,
          (T1 − T0)/(R8 + R9); positive when the via cools *)
  resistances : Resistances.t;  (** the stamped eq. 7–16 values *)
}

val solve : ?coeffs:Coefficients.t -> Ttsv_geometry.Stack.t -> result
(** [solve ?coeffs stack] evaluates the model with the given (default
    unity) fitting coefficients, using the stack's per-plane heat
    inputs. *)

val solve_with_heats :
  ?coeffs:Coefficients.t -> Ttsv_geometry.Stack.t -> Ttsv_numerics.Vec.t -> result
(** [solve_with_heats ?coeffs stack qs] overrides the per-plane heat
    inputs (length must equal the plane count). *)

val solve_triples : Resistances.t -> Ttsv_numerics.Vec.t -> result
(** [solve_triples rs qs] solves the network for externally supplied
    resistances — the entry point used by the cluster model, which edits
    the liner entries per eq. 22 before solving.  Raises
    [Invalid_argument] when [rs] has no planes or [qs] is not one heat
    per plane. *)

val walk : Resistances.t -> resistor:(int -> int -> float -> unit) -> unit
(** [walk rs ~resistor] calls [resistor i j r] once per resistor of the
    eq. 1–6 network, in stamping order: R_s first, then for each plane,
    bottom up, its [bulk] resistor, then its [tsv] and [liner] where the
    TTSV continues; the top plane's [tsv + liner] joins in series into
    its bulk node.  The sink is node −1, T0 is node 0, plane i's bulk
    node is 2i + 1 and its TTSV node 2i + 2 (a network of N planes has
    2N nodes, the top plane having no TTSV node), so |i − j| ≤ 2.  A
    chip tile without vias walks infinite [tsv] and [liner] values. *)

val band : Resistances.t -> float array
(** [band rs] is the sink-eliminated conductance matrix of {!walk}: a
    fresh band of order 2N and half-bandwidth 2 in
    {!Ttsv_numerics.Banded.solve_in_place}'s layout (10N floats).
    Raises [Invalid_argument] when [rs] has no planes. *)

val max_rise : result -> float
(** [max_rise r] is the paper's "Max ΔT": the largest nodal temperature
    rise above the heat sink. *)

val sink_path_heat : result -> float
(** Heat flowing through R_s (should equal total injected heat —
    asserted by the test suite as an energy-conservation check). *)
