(** Thermal-via allocation (the paper's motivating methodology, cf. its
    refs. [4], [5]).

    Given a chip model, per-plane power maps and a temperature budget,
    allocate per-tile TTSV density so the budget is met with as little
    via metal as possible — "a critical resource in 3-D ICs" (paper §V).

    The allocator is the classic greedy loop the TSV-planning literature
    uses: solve the compact model, find the hottest tile column, add via
    density there, repeat.  Each solve is a compact-network evaluation,
    which is exactly what makes model-in-the-loop planning affordable
    compared to FEM (the paper's closing argument). *)

type options = {
  budget : float;  (** maximum allowed rise above the sink, K *)
  step : float;  (** density added to the chosen tile per iteration *)
  max_density : float;  (** per-tile density cap, < 1 *)
  max_iterations : int;
  candidates : int;
      (** tiles scored per iteration: 1 (default) is the classic greedy
          hottest-tile rule; [k > 1] trial-solves the [k] hottest
          unsaturated top-plane tiles and commits the one that cools the
          chip most (look-ahead) *)
}

val default_options : budget:float -> options
(** [step = 0.002], [max_density = 0.2], [max_iterations = 2000],
    [candidates = 1]. *)

type outcome = {
  densities : Chip_model.densities;  (** the final per-tile allocation *)
  final : Chip_model.result;  (** chip solution at that allocation *)
  iterations : int;
  feasible : bool;  (** whether the budget was met *)
  metal_area : float;  (** total via metal allocated, m² *)
  history : float array;  (** max rise after each iteration (including start) *)
}

val allocate :
  ?pool:Ttsv_parallel.Pool.t -> Chip_model.t -> Power_map.t list -> options -> outcome
(** [allocate chip power opts] runs the greedy loop from an empty
    allocation.  Infeasible problems (budget unreachable even at the cap
    everywhere) terminate with [feasible = false] when every tile is
    saturated or the iteration cap is hit.  With [candidates > 1] the
    per-iteration trial solves are evaluated over [pool]; candidate
    ranking and tie-breaking are deterministic, so the allocation is
    identical with or without a pool. *)

val metal_area : Chip_model.t -> Chip_model.densities -> float
(** Total via metal a density allocation spends, m². *)

type scenario = {
  chip : Chip_model.t;
  bare : Chip_model.result;  (** the chip with no TTSVs *)
  allocation : outcome option;  (** the greedy allocation, when a budget was given *)
}

val hotspot_scenario :
  ?pool:Ttsv_parallel.Pool.t ->
  size_mm:float ->
  grid:int ->
  power:float ->
  hotspot:float ->
  ?budget:float ->
  candidates:int ->
  Ttsv_geometry.Stack.t ->
  scenario
(** The hotspot-allocation scenario of the CLI's [chip] command and the
    service's [chip_alloc] request: a square chip [size_mm] mm on a side
    of [grid] × [grid] tiles, each a copy of the unit-cell [stack];
    [power] W spread uniformly on every plane, plus [hotspot] W on the
    2×2 tile block at (2·grid/3, 2·grid/3) of the top plane.  The chip
    is solved bare, then, given a [budget], allocated greedily with
    [step = 0.01], [max_density = 0.15] and [candidates].  Raises
    [Invalid_argument] on what {!Chip_model.make}, {!Power_map} or
    {!allocate} reject. *)

val pp_densities : Chip_model.t -> Chip_model.densities -> Format.formatter -> unit
(** ASCII map of the allocation ('.' = none, '1'-'9' scaled to the cap). *)
