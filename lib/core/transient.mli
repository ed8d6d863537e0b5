(** Transient RC extension of Model A (beyond the paper).

    The paper's models are steady-state; this module adds the natural
    forward extension: each Model A node receives a lumped heat capacity
    (layer volume × volumetric heat capacity of its materials), turning
    the resistive network into an RC network

      C·dT/dt + G·T = q(t),

    integrated with backward Euler (unconditionally stable).  G is
    Model A's own band ({!Model_a.band}, nodes numbered by
    {!Model_a.walk}); each step eliminates a copy of G + C/Δt in place,
    a 2N-node band for N planes.  With a step from zero, the response
    converges to the steady Model A solution — asserted by the test
    suite — and yields the unit cell's thermal time constant, the
    quantity a dynamic-thermal-management study would need next. *)

type result = {
  times : float array;  (** sample instants, s *)
  max_rise : float array;  (** Max ΔT at each instant, K *)
  bulk : float array array;  (** [bulk.(step).(plane)] bulk-node rises, K *)
  steady : Model_a.result;  (** the steady-state limit *)
}

val solve :
  ?coeffs:Coefficients.t ->
  ?power:(float -> float) ->
  Ttsv_geometry.Stack.t ->
  dt:float ->
  duration:float ->
  result
(** [solve stack ~dt ~duration] integrates from a uniform 0 K rise.
    [power] scales the steady heat vector over time (default: constant
    1.0, i.e. a power step at t = 0); it lets callers model duty-cycled
    workloads.  Raises [Invalid_argument] for nonpositive [dt] or
    [duration], or for [dt > duration]. *)

val time_constant : result -> float option
(** [time_constant r] is the first instant at which Max ΔT reaches
    1 − 1/e of its steady value (linear interpolation between samples),
    or [None] when the run ends before it gets there (a duration
    shorter than the time constant, or a power trace that never drives
    the rise that high). *)

val settled : ?tol:float -> result -> bool
(** [settled r] is true when the final sample is within [tol] (default
    1 %) of the steady-state Max ΔT. *)
