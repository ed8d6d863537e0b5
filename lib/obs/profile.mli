(** Offline trace analysis: load a JSONL trace ({!Sink.schema}), rebuild
    the span tree, and derive the aggregates
    [bin/obs_report] renders — per-name self/total times, the critical
    path, flamegraph.pl collapsed stacks, and convergence curves. *)

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

type t = { schema : string; spans : span list; convs : conv list }

type agg = {
  agg_name : string;
  agg_count : int;
  agg_total : float;  (** summed span durations, children included *)
  agg_self : float;  (** summed durations minus direct children, >= 0 *)
}

val of_lines : string list -> (t, string) result
(** Parse trace lines (blank lines skipped).  Fails on an unparseable
    line, an unsupported schema, or a malformed span/conv record;
    [metric] and [summary] records are skipped. *)

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
