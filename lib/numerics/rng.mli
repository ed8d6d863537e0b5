(** Deterministic pseudo-random numbers for reproducible experiments.

    A small splitmix64 generator: every Monte-Carlo experiment in this
    repository is seeded explicitly, so published tables regenerate
    bit-identically.  Not cryptographic. *)

type t
(** Mutable generator state. *)

val create : int -> t
(** [create seed] builds a generator from any integer seed. *)

val uniform : t -> float
(** [uniform g] is the next double in [[0, 1)]. *)

val normal : t -> mean:float -> sigma:float -> float
(** [normal g ~mean ~sigma] draws from N(mean, sigma²) (Box–Muller).
    [sigma >= 0] required. *)

val lognormal_factor : t -> sigma:float -> float
(** [lognormal_factor g ~sigma] is exp(N(0, sigma²)) — a multiplicative
    process-variation factor with median 1. *)
