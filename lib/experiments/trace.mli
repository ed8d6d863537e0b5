(** Power traces for transient analysis.

    A trace is a piecewise-linear power-scaling waveform — DVFS states,
    duty cycles, measured activity — parsed from a two-column CSV
    ([time_s,scale], header optional, '#' comments ignored) and exposed
    as the [float -> float] function {!Ttsv_core.Transient.solve} and
    {!Ttsv_fem.Solver.solve_transient} accept. *)

type t
(** An immutable piecewise-linear waveform. *)

val of_points : (float * float) list -> t
(** [of_points pts] builds a waveform from (time, scale) samples, in
    any order; at least one point, distinct finite nonnegative times,
    finite nonnegative scales ([Invalid_argument] otherwise).
    Evaluation clamps to the first/last samples outside the domain. *)

val parse : string -> t
(** [parse text] parses CSV text.  Raises [Failure] with a line number
    on malformed rows. *)

val load : string -> t
(** [load path] reads and parses a file. *)

val scale : t -> float -> float
(** [scale t time] evaluates the waveform — pass [scale t] as the
    [~power] argument of the transient solvers. *)

val duration : t -> float
(** Last sample time. *)

val peak : t -> float
(** Largest scale in the table. *)

val average : t -> float
(** Time-averaged scale over [0, duration] (trapezoid; the single
    sample's value when the trace has one point). *)

val square_wave : period:float -> duty:float -> high:float -> low:float -> samples:int -> t
(** [square_wave ~period ~duty ~high ~low ~samples] synthesizes a
    duty-cycled waveform sampled finely enough for the solvers
    ([duty] in (0, 1), [samples] ≥ 8 per period edge fidelity). *)
