(** Offline trace analysis: load a JSONL trace ({!Sink.schema}), rebuild
    the span tree, and derive the aggregates
    [bin/obs_report] renders — per-name self/total times, the critical
    path, flamegraph.pl collapsed stacks, and convergence curves.

    This is the only reader of the trace format; [obs_check], [obs_report]
    and the bench ledger all load through {!of_lines}, which enforces
    the whole contract and rejects the trace at its first violation:
    - the first record is a [meta] with the current schema and a string
      [clock_unit]; no second [meta]; every record has a known string
      [type] ([span], [metric], [summary] or [conv]);
    - a [span] has integer [id] (unique in the file), [domain] and
      [depth] >= 0, string [name], numeric [start] and [dur] >= 0, a
      [parent] that is null/absent or the id of a span in the file, and
      [attrs], when present, an object of strings;
    - a [metric] has a string [name], a [kind] of counter, gauge or
      histogram, a [value], a numeric [t] and an optional integer [span];
    - a [summary] has a string [name] and a [data] object;
    - a [conv] has a string [method], an integer [total] >= 0, equally
      long numeric [iterations] and [residuals] lists no longer than
      [total], a numeric [t] and an optional integer [span]. *)

type span = {
  id : int;
  parent : int option;
  domain : int;
  depth : int;
  name : string;
  start : float;
  dur : float;
}

type conv = {
  meth : string;
  span : int option;  (** enclosing span id, when the solve had one *)
  total : int;
  iterations : int array;
  residuals : float array;
}

type t = {
  schema : string;
  spans : span list;
  convs : conv list;
  metrics : int;  (** number of [metric] records *)
  summaries : (string * float option) list;
      (** each [summary] record's name and numeric [data.value], in file
          order; [None] for a histogram, which has no single value *)
}

type agg = {
  agg_name : string;
  agg_count : int;
  agg_total : float;  (** summed span durations, children included *)
  agg_self : float;  (** summed durations minus direct children, >= 0 *)
}

val of_lines : string list -> (t, string) result
(** Parse trace lines (blank lines skipped).  [Error] names the first
    line that breaks the contract above (or the span with an unknown
    parent). *)

val load : string -> (t, string) result

val roots : t -> span list

val totals : t -> agg list
(** Per-name aggregation over every span, sorted by self time
    descending. *)

val critical_path : t -> (span * float) list
(** The longest root span, then repeatedly its longest child; each entry
    carries the span's self time. *)

val collapsed : t -> (string * float) list
(** Flamegraph collapsed stacks: one entry per distinct root-to-span
    name path (names joined with [';']), carrying the aggregated self
    time in seconds.  Summing all entries reproduces the total traced
    wall time (sum of root span durations) up to clock-jitter clamping. *)

val span_label : t -> int -> string option
(** Root-to-span name path for one span id — used to label convergence
    curves with the rung that produced them. *)
