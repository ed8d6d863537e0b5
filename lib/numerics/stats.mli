(** Error metrics and summary statistics.

    The paper reports model accuracy as maximum and average relative error
    against the FEM reference (Table I and the per-figure error text);
    this module implements exactly those metrics plus the usual summary
    statistics used in the benchmark reports. *)

val max_rel_error : Vec.t -> Vec.t -> float
(** [max_rel_error xs ref_] is [max_i |xs.(i) - ref_.(i)| / |ref_.(i)|];
    the paper's "maximum error".  Reference entries of magnitude below
    [1e-300] raise [Invalid_argument]. *)

val mean_rel_error : Vec.t -> Vec.t -> float
(** The paper's "average error": mean of the pointwise relative errors. *)

val variance : Vec.t -> float
(** Population variance.  Raises [Invalid_argument] on empty input. *)

val stddev : Vec.t -> float
(** Population standard deviation. *)

val median : Vec.t -> float
(** Median (average of middle pair for even lengths). *)

val percentile : float -> Vec.t -> float
(** [percentile p v] for [p] in [[0, 100]], linear interpolation between
    order statistics. *)
