(** GC and allocation telemetry.

    {!sample} refreshes the [gc.*] gauges in the default metrics
    registry from [Gc.quick_stat] (no-op when metrics are off); it is
    called automatically before every summary snapshot by {!Config}, so
    printed summaries and JSONL [summary] lines carry current GC
    counters without any instrumentation in user code.

    Per-span allocation deltas are handled in {!Span}: when metrics are
    on, the span records the difference in {!allocated_words} between
    open and close into the ["alloc.<name>"] histogram via
    {!Metrics.span_alloc} — the words the span's own domain allocated
    while it was open, not what other domains allocated meanwhile. *)

val allocated_words : unit -> float
(** Words allocated by the calling domain
    ([Gc.minor_words ()] plus the major minus the promoted words of
    [Gc.counters ()]); monotone and exact, so a delta between two calls
    on one domain is the words allocated in between, a few words for
    the call itself included, whether or not a collection ran. *)

val sample : unit -> unit
(** Set the [gc.minor_words], [gc.promoted_words], [gc.major_words],
    [gc.allocated_words], [gc.minor_collections],
    [gc.major_collections], [gc.compactions] and [gc.heap_words]
    gauges.  [gc.allocated_words] is {!allocated_words}, the calling
    domain's; the others read [Gc.quick_stat].  No-op when metrics are
    off. *)
