(** Temperature-dependent-conductivity study (extension beyond the paper).

    The paper (like most compact-model work) freezes every conductivity;
    but silicon's k falls as ≈ T^(−4/3), so a stack running 40 K hot
    conducts measurably worse than its 300 K datasheet value suggests.
    This experiment swaps the substrates for
    {!Ttsv_physics.Materials.silicon_k_of_t} and compares, on the Fig. 5
    midpoint block at 1× and 2× power:

    - linear Model A / FV (k at the 300 K value),
    - nonlinear Model A / FV (Picard-converged k(T)),

    reporting the self-heating penalty each solver sees and the Picard
    sweep counts.  Expected: a few percent at 1× power, growing
    superlinearly with power, with Model A and FV agreeing on the
    penalty. *)

val run : ?resolution:int -> unit -> Report.table

val print : ?resolution:int -> Format.formatter -> unit -> unit
