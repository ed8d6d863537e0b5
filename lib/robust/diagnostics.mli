(** Structured solver diagnostics.

    {!Robust.solve} climbs an escalation ladder of solver {e rungs} —
    IC(0)-CG, Jacobi-CG and a direct LU backstop by default, with
    multigrid-CG on ladders that pin it; the diagnostics record every
    attempt — which rung, why it stopped, how many iterations it spent,
    its final true relative residual, and its wall time — together with
    the residual trace of the last attempt.
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
  conv : Ttsv_obs.History.snapshot option;
      (** this attempt's own bounded convergence history, kept even when
          the ladder escalates past a failed rung — present only when
          observability was enabled during the solve; [None] for direct
          and skipped rungs, and for a converged start (an [x0] that
          already met [tol], answered at 0 iterations) *)
}

type t = {
  attempts : attempt list;  (** in execution order *)
  solved_by : rung option;  (** the rung that produced the answer *)
  iterations : int;  (** total across attempts *)
  residual : float;  (** final true relative residual *)
  trace : float array;  (** residual history of the deciding attempt *)
  conv : Ttsv_obs.History.snapshot option;
      (** bounded convergence history of the deciding attempt — present
          only when observability was enabled during the solve (see
          {!Ttsv_numerics.Iterative.result}); [None] for direct solves
          and converged starts.
          Failed rungs keep their own history in [attempts]. *)
  wall_time : float;  (** total seconds *)
}

val empty : t

val rung_name : rung -> string
val pp_outcome : Format.formatter -> outcome -> unit
val pp_attempt : Format.formatter -> attempt -> unit

val default_trace_cap : int
(** Residual-history entries shown by {!pp} and {!to_json} before the
    explicit truncation marker kicks in (32). *)

val pp_trace : ?max_trace:int -> Format.formatter -> t -> unit
(** Print the residual trace capped at [max_trace] (default
    {!default_trace_cap}) entries, appending
    ["... (truncated, showing k of n)"] when the history is longer —
    never the silent full dump.  Raises [Invalid_argument] on a negative
    cap. *)

val pp : Format.formatter -> t -> unit
(** Attempts, verdict and (capped, see {!pp_trace}) residual trace. *)

val to_json : ?max_trace:int -> t -> Ttsv_obs.Json.t
(** Machine-readable form of the record.  The ["trace"] array is capped
    like {!pp_trace}, with ["truncated"] set [true] and ["trace_len"]
    carrying the full history length.  ["conv"] carries the
    {!Ttsv_obs.History.snapshot} of the deciding attempt ([null] when
    absent); each attempt additionally carries its own ["conv"], so an
    escalated-past failure keeps its convergence history. *)
