(** The metrics registry: named counters, gauges and histograms with
    atomic updates, plus immutable snapshots.

    Handles are interned by name (creating twice returns the same
    instrument; re-using a name with a different kind raises
    [Invalid_argument]).  Handle {e creation} takes the registry mutex —
    do it once at module initialisation.  The update operations
    ([incr]/[add]/[set]/[observe]) are the instrumentation hot path:
    each is guarded by a single {!Flags.metrics_on} read and performs
    only atomic arithmetic when enabled, nothing when disabled. *)

type t
(** A registry.  Instrumented library code uses {!default}; tests create
    private registries with {!create} to stay isolated. *)

type registry = t
(** Alias usable inside the instrument submodules, where [t] is the
    instrument itself. *)

val default : t
val create : unit -> t

module Counter : sig
  type t

  val make : ?registry:registry -> string -> t
  val incr : t -> unit
  val add : t -> int -> unit

  val value : t -> int
  (** Reads are never guarded — they see whatever was accumulated while
      metrics were on. *)
end

module Gauge : sig
  type t

  val make : ?registry:registry -> string -> t
  val set : t -> float -> unit
  val add : t -> float -> unit
  val value : t -> float
end

module Histogram : sig
  type t

  val make : ?registry:registry -> string -> t

  val observe : t -> float -> unit
  (** Records [v] into the fixed log-scale bucket layout shared by every
      histogram: bucket [i] covers [[bucket_lower i, bucket_upper i)],
      with bucket 0 also catching zero/negative/NaN values and the last
      bucket catching overflow. *)

  val count : t -> int
  val sum : t -> float
  val nbuckets : int
  val bucket_index : float -> int
  val bucket_lower : int -> float
  val bucket_upper : int -> float
end

val span_duration : ?registry:t -> string -> float -> unit
(** [span_duration name dur] accumulates a closed span's duration into
    the ["span.<name>"] histogram (no-op when metrics are off).  This is
    how phase breakdowns reach the bench JSON without the bench knowing
    every span site. *)

val span_alloc : ?registry:t -> string -> float -> unit
(** [span_alloc name words] accumulates a closed span's allocation delta
    (in words, from [Gc.quick_stat]) into the ["alloc.<name>"]
    histogram.  Kept out of the ["span."] namespace so phase/wall-clock
    consumers never mix words with seconds. *)

val reset : ?registry:t -> unit -> unit
(** Zero every instrument in place (handles stay valid). *)

(** {2 Snapshots} *)

type hist_snapshot = {
  buckets : int array;
  count : int;
  sum : float;
  min : float;  (** [infinity] when empty *)
  max : float;  (** [neg_infinity] when empty *)
}

type sample = C of int | G of float | H of hist_snapshot

type snapshot = (string * sample) list
(** Sorted by name. *)

val snapshot : ?registry:t -> unit -> snapshot

val percentile : hist_snapshot -> float -> float
(** [percentile h q] estimates the [q]-quantile ([0. <= q <= 1.]) from
    the log2 buckets: cumulative walk to the bucket holding the target
    rank, linear interpolation inside it, clamped to the observed
    [min]/[max].  Accurate to one octave at worst; NaN when empty. *)

val sample_to_json : sample -> Json.t
(** Histogram samples carry [p50]/[p95]/[p99] estimates (null when the
    histogram is empty, like [min]/[max]). *)

val pp_summary : Format.formatter -> snapshot -> unit
