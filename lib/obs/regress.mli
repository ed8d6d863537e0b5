(** The bench-regression gate behind [obs_check regress].

    Metrics are discovered generically from a BENCH_*.json value: the
    walk extends a [/]-separated key path at each object from its
    identifying fields ([name], [resolution] as [res<k>], [domains] as
    [d<k>]) and records every [iterations] and [wall_s] leaf, so e.g.
    the mg entry of the res-3 multigrid run gates under
    [solve_fv_fig5/res3/mg].  [phases] subtrees are skipped — phase
    sums move with scheduling noise.

    Iteration counts are chunk-deterministic, so they must match
    exactly, in both directions.  Wall clocks compare with a ratio
    tolerance; getting faster always passes. *)

type kind = Iterations | Wall

val kind_name : kind -> string

type metric = { key : string; kind : kind; value : float }

type status =
  | Ok_
  | Regressed of string  (** human-readable reason naming the values *)
  | Missing  (** in the baseline, absent from current — a violation *)
  | New  (** only in current — informational *)

type row = {
  key : string;
  kind : kind;
  baseline : float option;
  current : float option;
  status : status;
}

val default_wall_tol : float
(** [2.0] — current wall time may be at most twice the baseline. *)

val extract : Json.t -> metric list

val compare_benches : ?wall_tol:float -> baseline:Json.t -> current:Json.t -> unit -> row list
(** One row per baseline metric (plus [New] rows for metrics only in
    current), in extraction order.  A current wall time may be at most
    [wall_tol] (default {!default_wall_tol}) times its baseline. *)

val violations : row list -> string list
(** The gate: one line per [Regressed]/[Missing] row, naming the
    offending metric.  Empty means pass. *)

val pp_table : Format.formatter -> row list -> unit
(** The trend table printed by [obs_check regress]. *)
