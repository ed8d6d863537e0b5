(** A minimal JSON value, printer, and parser.

    The build deliberately carries no third-party JSON dependency; this
    covers exactly what the project needs — emitting JSONL lines
    (traces, service responses, checkpoints), writing the
    [BENCH_*.json] files, and parsing all of them back.  Non-finite
    floats print as [null] (JSON has no NaN/Inf literal).

    Emitted strings are pure ASCII and lossless for arbitrary byte
    sequences: valid UTF-8 becomes [\uXXXX] escapes (surrogate pairs
    above the BMP), and bytes that are not part of a valid UTF-8
    sequence are escaped as lone low surrogates [\udc80]..[\udcff] (the
    surrogateescape convention).  The parser inverts both, so
    [parse (to_string (String s)) = Ok (String s)] holds byte-for-byte
    for every [s]. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

val to_string : t -> string
(** Compact single-line rendering (never contains a newline), so one
    value per line is a valid JSONL record. *)

val to_string_pretty : t -> string
(** Multi-line rendering for files people read: a list or object that
    holds only scalars prints on one line as {!to_string} would; any
    other prints one child per line, indented two spaces per level.
    Ends with a newline; [parse] reads it back to the same value. *)

val parse : string -> (t, string) result
(** Parse one complete JSON value; trailing non-whitespace is an error. *)

val member : string -> t -> t option
(** [member key (Obj ...)] looks up a field; [None] on any other
    constructor. *)

val to_int_opt : t -> int option
val to_float_opt : t -> float option
(** Accepts [Int] too — JSON readers routinely print whole floats
    without a decimal point. *)

val to_string_opt : t -> string option
