(** CSV export of reproduced figures and tables.

    Every figure renders to one CSV with the sweep variable in the first
    column and one column per series — the format plotting scripts
    (gnuplot, matplotlib, …) consume directly. *)

val figure_to_string : Report.figure -> string
(** A header row ([x_label [unit], series labels…]) and one row per
    sweep point. *)

val write_figure : Report.figure -> string -> unit
(** [write_figure fig path] writes (and overwrites) [path]. *)

val write_table : Report.table -> string -> unit
(** [write_table t path] writes a generic labelled table as CSV. *)
