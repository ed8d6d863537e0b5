(** Model B — the paper's distributed π-segment TTSV model (§III).

    Each plane is discretized into [n_j = n_Dj + n_Sj] π-segments —
    [n_Sj] across the bond + substrate part and [n_Dj] across the ILD —
    each segment contributing a bulk node and (where the TTSV runs) a
    metal node, a vertical bulk resistor, a vertical metal resistor
    [R_Mj / n_j], and a lateral liner rung [n_j · R_Lj] (eq. 21).  Heat
    enters as [q_j / n_Dj] at every ILD bulk node (eq. 20).  No fitting
    coefficients are used.

    The resulting KCL system A·T = b (eq. 19) is assembled directly into
    a half-bandwidth-2 banded matrix (bulk and metal nodes interleaved,
    as in {!Model_a.walk}) and solved in O(n) by
    {!Ttsv_numerics.Banded.solve_in_place}: the library's equivalent of
    the paper's sparse solve, which lets Table I's largest configuration
    run in milliseconds.

    Faithfulness notes (documented deviations, both more physical than
    the lumped alternative):
    - in the top plane the TTSV stops at the top of the substrate, so
      its ILD segments carry no metal column and the metal/rung budget
      is distributed over the substrate segments only (this reproduces
      the lumped R8 + R9 series branch when [n = 1]);
    - a requested top-plane segmentation with no substrate segment is
      bumped to one substrate segment so the TTSV remains connected. *)

type segmentation = (int * int) array
(** Per plane, bottom-up: [(n_ild, n_si)] — ILD segments and
    bond+substrate segments.  For the first plane the "substrate" part
    is the TSV extension [l_ext]. *)

type result = {
  t0 : float;  (** rise at the TTSV foot node (above R_s), K *)
  temps : float array;  (** every nodal rise, assembly order; a fresh array *)
  nodes : int;  (** system order 2·n_A (+1 for T0) actually assembled *)
  segmentation : segmentation;  (** the segmentation actually used *)
  stack : Ttsv_geometry.Stack.t;  (** the stack solved, which the profiles re-walk *)
}

val segmentation_for : Ttsv_geometry.Stack.t -> counts:int array -> segmentation
(** [segmentation_for stack ~counts] splits each plane's requested
    segment count between its ILD and substrate parts proportionally to
    their thicknesses (at least one segment each when the count allows;
    the top plane always keeps a substrate segment).  [counts] must have
    one positive entry per plane. *)

val paper_segmentation : Ttsv_geometry.Stack.t -> int -> segmentation
(** [paper_segmentation stack n] is the paper's "Model B (n)"
    convention: [max 1 (n/10)] segments in the first plane and [n] in
    every other plane (Table I's (1,1), (2,20), (10,100), (50,500)). *)

val solve : ?cluster:int -> Ttsv_geometry.Stack.t -> segmentation -> result
(** [solve stack seg] assembles and solves the distributed network using
    the stack's heat inputs.  [cluster] (default 1) divides the TTSV
    into that many equal-metal-area vias, applying eq. 22 to every
    distributed liner rung (the Fig. 7 workload).

    Memory: the band and right-hand side are stamped into a scratch
    kept per domain and solved in place, so a solve allocates on the
    major heap only its [temps].  The scratch grows to the largest ladder
    its domain solved and is kept: 6 words per node, ~5 MB for
    B(25600)'s ~104k nodes.  Two systhreads of one domain must not solve
    at once. *)

val solve_with_heats :
  ?cluster:int -> Ttsv_geometry.Stack.t -> segmentation -> Ttsv_numerics.Vec.t -> result
(** Like {!solve} with explicit per-plane heats. *)

val solve_n : ?cluster:int -> Ttsv_geometry.Stack.t -> int -> result
(** [solve_n stack n] is [solve stack (paper_segmentation stack n)]. *)

val max_rise : result -> float
(** The paper's Max ΔT: the largest nodal rise. *)

val bulk_profile : result -> (float * float) array
(** (z, ΔT) along the bulk column, z upward in metres from the TSV foot
    level, one sample per segment top; re-walks the ladder on demand. *)

val tsv_profile : result -> (float * float) array
(** (z, ΔT) along the metal column, built like {!bulk_profile}. *)

val solve_via_circuit : Ttsv_geometry.Stack.t -> segmentation -> float
(** Max ΔT computed by routing the same walk through the generic
    {!Ttsv_network.Circuit} solver — the reference for the banded
    assembly, as the test suite's walk-through-[Circuit] property is
    for Model A's band.  The only [Circuit] user in [ttsv_core]. *)
