(** Structured solver diagnostics.

    {!Robust.solve} climbs an escalation ladder of solver {e rungs} —
    IC(0)-CG, Jacobi-CG and a direct LU backstop by default, with
    multigrid-CG on ladders that pin it; the diagnostics record every
    attempt — which rung, why it stopped, how many iterations it spent,
    its final true relative residual, and its wall time — together with
    the residual trace of the deciding attempt.  The record is the same
    whether observability is off, collecting metrics or tracing; a
    traced run also writes each CG attempt's curve as a [conv] line
    under its [robust.<rung>] span, so an escalated-past rung's history
    lives in the trace.
    The record is surfaced through {!Ttsv_fem.Solver.solve},
    {!Ttsv_fem.Solver3.solve} and the CLI's [--solver-report] flag. *)

type rung =
  | Cg_mg
      (** geometric-multigrid-preconditioned conjugate gradients
          (fewest iterations, but its hierarchy setup outweighs a whole
          IC(0)-CG solve, so it runs only when a [rungs] list pins it;
          needs a structured-grid shape) *)
  | Cg_ic0  (** IC(0)-preconditioned conjugate gradients (strongest shape-oblivious rung) *)
  | Cg
      (** Jacobi-preconditioned conjugate gradients (no construction
          step, so it still runs when every preconditioner above it
          fails to build) *)
  | Direct  (** banded or dense LU fallback *)

type outcome =
  | Success
  | Iterative_failure of Ttsv_numerics.Iterative.status
  | Singular  (** the direct factorization hit a zero pivot *)
  | Residual_too_large of float
      (** the direct solve went through but its residual failed the
          acceptance check *)
  | Skipped of string  (** the rung was not attempted (and why) *)

type attempt = {
  rung : rung;
  outcome : outcome;
  iterations : int;  (** iterations this attempt spent (0 for direct) *)
  residual : float;  (** true relative residual after the attempt; NaN if skipped *)
  wall_time : float;  (** seconds *)
}

type t = {
  attempts : attempt list;  (** in execution order *)
  solved_by : rung option;  (** the rung that produced the answer *)
  iterations : int;  (** total across attempts *)
  residual : float;  (** final true relative residual *)
  trace : float array;
      (** residual history of the deciding attempt: a CG rung's full
          {!Ttsv_numerics.Iterative.result.trace}, or the one true
          residual of a direct solve or a converged start *)
  wall_time : float;  (** total seconds *)
}

val empty : t

val rung_name : rung -> string
val pp_outcome : Format.formatter -> outcome -> unit
val pp_attempt : Format.formatter -> attempt -> unit

val pp : Format.formatter -> t -> unit
(** Attempts, verdict and residual trace.  The trace shows its first 32
    entries, then ["... (truncated, showing 32 of n)"] when the history
    is longer — never the silent full dump. *)

val to_json : t -> Ttsv_obs.Json.t
(** Machine-readable form of the record: ["attempts"] (each with
    ["rung"], ["outcome"], ["iterations"], ["residual"] and
    ["wall_seconds"]), ["solved_by"], ["iterations"], ["residual"],
    ["wall_seconds"], and the ["trace"] capped like {!pp}, with
    ["truncated"] set [true] and ["trace_len"] carrying the full history
    length. *)
