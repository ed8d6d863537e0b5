(** Derivative-free optimization and root finding.

    Used by {!Ttsv_core.Calibrate} to fit the Model A coefficients (k1, k2)
    against the finite-volume reference, and by the fillers experiment to
    invert a monotone temperature-vs-radius curve by bisection. *)

type minimum = {
  xmin : Vec.t;     (** location of the best point found *)
  fmin : float;     (** objective value at [xmin] *)
  iterations : int; (** simplex steps performed *)
  converged : bool; (** whether the spread criterion was met *)
}

val nelder_mead :
  ?tol:float ->
  ?max_iter:int ->
  (Vec.t -> float) ->
  Vec.t ->
  minimum
(** [nelder_mead f x0] minimizes [f] starting from [x0] with the
    Nelder–Mead downhill-simplex method (reflection 1, expansion 2,
    contraction 0.5, shrink 0.5).  The initial simplex is [x0] plus
    [0.1 * (1 + |x0_i|)] along each axis.  Convergence:
    the simplex function spread falls below [tol] (default [1e-10]). *)

val bisect :
  ?tol:float -> ?max_iter:int -> (float -> float) -> float -> float -> float
(** [bisect f a b] finds a root of [f] in the bracketing interval
    [[a, b]] by plain bisection; it always converges.  Requires
    [f a *. f b <= 0.], otherwise raises [Invalid_argument].  [tol] is
    the final interval width (default [1e-12]); [max_iter] caps the
    halvings (default 200). *)
