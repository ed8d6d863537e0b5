(** Closed-form solution of the three-plane Model A network.

    The paper omits the closed-form temperature expressions "due to space
    limitations"; this module reconstructs them.  Writing g_i = 1/R_i and
    working with rises θ_i = T_i − T0, the eq. 1–5 KCL system is reduced
    by eliminating θ5 (node T5) and θ2 (node T2), leaving a symmetric
    3×3 system in (θ1, θ3, θ4) that Cramer's rule solves explicitly; θ2,
    θ5 and T0 = R_s·Σq (eq. 6) follow by back-substitution.  Every
    temperature is therefore a finite rational expression in the nine
    resistances and three heats — no matrix factorization involved.

    The test suite verifies this module against {!Model_a}'s band solve
    to machine precision.  Written from the equations rather than from
    {!Model_a.walk}, it is the walk's independent check at three planes,
    and the fast path (~35 ns) for the planner example, which evaluates
    millions of candidate geometries, and the variation study. *)

type temperatures = {
  t0 : float;  (** T0: rise above the sink at the TSV foot level *)
  t1 : float;  (** plane-1 bulk node rise *)
  t2 : float;  (** plane-1 TTSV node rise *)
  t3 : float;  (** plane-2 bulk node rise *)
  t4 : float;  (** plane-2 TTSV node rise *)
  t5 : float;  (** plane-3 bulk node rise *)
}

val solve : Resistances.t -> q1:float -> q2:float -> q3:float -> temperatures
(** [solve rs ~q1 ~q2 ~q3] evaluates the closed form.  Raises
    [Invalid_argument] unless [rs] describes exactly three planes. *)

val of_stack : ?coeffs:Coefficients.t -> Ttsv_geometry.Stack.t -> temperatures
(** Convenience wrapper: eq. 7–16 resistances from the stack, heats from
    the stack's power description.  Requires a 3-plane stack. *)

val max_rise : temperatures -> float
(** Largest of the six temperature rises. *)
