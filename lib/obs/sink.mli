(** The JSONL trace writer.

    One JSON object per line.  Every file starts with a [meta] line
    carrying the schema version ({!schema}); subsequent lines are
    [span], [metric], [conv] and [summary] events.  Writes are
    mutex-serialised (spans close concurrently on pooled domains) and
    silently dropped when no trace file is open, so callers only guard
    for performance, not correctness. *)

val schema : string
(** Current schema identifier, ["ttsv.trace.v2"] — the only one
    [obs_check] and {!Profile} accept. *)

val write_count : unit -> int
(** Total JSONL lines written over the process lifetime (never reset).
    The disabled-path guard test asserts it stays flat while
    observability is off. *)

val open_trace : string -> unit
(** Open (truncate) [path] and write the [meta] line.  An already-open
    trace is closed first. *)

val close_trace : unit -> unit
val flush_trace : unit -> unit
val trace_path : unit -> string option

val span :
  id:int ->
  parent:int option ->
  domain:int ->
  depth:int ->
  name:string ->
  start:float ->
  dur:float ->
  attrs:(string * string) list ->
  unit
(** Emit one closed span.  [start] is seconds since {!Clock.start_epoch};
    [attrs] is omitted from the JSON when empty. *)

val metric : ?span:int -> kind:string -> name:string -> Json.t -> unit
(** Emit a point-in-time metric sample (e.g. the [solve.iterations]
    total of one finished solve), tagged with the enclosing span id when
    the caller has one. *)

val conv : ?span:int -> History.snapshot -> unit
(** Emit one [conv] line — the residual history of one finished solve
    (method, total count, retained iteration/residual window), tagged
    with the enclosing span id when the caller has one. *)

val snapshot : Metrics.snapshot -> unit
(** Emit one [summary] line per metric — written when a trace closes so
    the file is self-contained. *)
