(* GC telemetry gauges fed from [Gc.quick_stat].  [quick_stat] reads
   per-domain counters without forcing a collection, so sampling is
   cheap; under multiple domains the word counts are the usual OCaml 5
   approximation (exact for the calling domain, eventually consistent
   for the others), which is fine for telemetry. *)

let g_minor_words = Metrics.Gauge.make "gc.minor_words"
let g_promoted_words = Metrics.Gauge.make "gc.promoted_words"
let g_major_words = Metrics.Gauge.make "gc.major_words"
let g_allocated_words = Metrics.Gauge.make "gc.allocated_words"
let g_minor_collections = Metrics.Gauge.make "gc.minor_collections"
let g_major_collections = Metrics.Gauge.make "gc.major_collections"
let g_compactions = Metrics.Gauge.make "gc.compactions"
let g_heap_words = Metrics.Gauge.make "gc.heap_words"

(* Words allocated by the calling domain.  [Gc.minor_words ()] reads the
   young pointer and is exact in native code ([quick_stat]'s and
   [counters]'s minor fields are not); the major and promoted words come
   from [Gc.counters ()], this domain's own, which count direct-to-major
   blocks as they are allocated.  [quick_stat]'s whole-program major and
   promoted counts only move at collections: added to the exact minor
   count, they read any span a collection lands in wrong, even
   negative. *)
let allocated_words () =
  let _, promoted, major = Gc.counters () in
  Gc.minor_words () +. major -. promoted

let sample () =
  if Flags.metrics_on () then begin
    let s = Gc.quick_stat () in
    Metrics.Gauge.set g_minor_words (Gc.minor_words ());
    Metrics.Gauge.set g_promoted_words s.promoted_words;
    Metrics.Gauge.set g_major_words s.major_words;
    Metrics.Gauge.set g_allocated_words (allocated_words ());
    Metrics.Gauge.set g_minor_collections (float_of_int s.minor_collections);
    Metrics.Gauge.set g_major_collections (float_of_int s.major_collections);
    Metrics.Gauge.set g_compactions (float_of_int s.compactions);
    Metrics.Gauge.set g_heap_words (float_of_int s.heap_words)
  end
