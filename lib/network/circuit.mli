(** Generic thermal resistive networks.

    The electrothermal duality the paper builds on (heat flow ↔ current,
    temperature ↔ voltage, thermal resistance ↔ electrical resistance)
    is realized here as a small circuit toolkit: create named nodes,
    connect them with resistors, inject heat, and solve for the nodal
    temperature rises above the ground (heat-sink) node by stamping a
    conductance matrix and solving the resulting SPD system.

    The full-chip model stamps its network here, Model A's eq. 1–6 walk
    in every tile.  Model A, its transient extension and Model B solve
    their two-rail ladders as bands through [Ttsv_numerics.Banded] and
    meet this module only as a reference: [Model_b.solve_via_circuit],
    and the test suite's check of Model A's band against the same walk
    fed to a circuit.  The 1-D baseline is a series chain and needs no
    network. *)

type t
(** A mutable circuit under construction. *)

type node
(** A node handle, valid only for the circuit that created it. *)

type solution
(** Solved nodal temperatures. *)

val create : unit -> t

val ground : t -> node
(** [ground c] is the reference node (the heat sink); its temperature
    rise is 0 by definition. *)

val add_node : t -> string -> node
(** [add_node c name] creates a fresh node.  Names are labels for
    debugging and reporting; duplicates are allowed. *)

val add_resistor : t -> node -> node -> float -> unit
(** [add_resistor c a b r] connects [a] and [b] with thermal resistance
    [r] (K/W).  [r] must be positive and finite; parallel duplicates
    accumulate.  Raises [Invalid_argument] on a self-loop or a foreign
    node. *)

val add_heat_source : t -> node -> float -> unit
(** [add_heat_source c n q] injects [q] watts into node [n] (from the
    ambient reference).  Multiple sources on one node accumulate;
    negative [q] models extraction. *)

val solve : t -> solution
(** [solve c] computes all nodal temperature rises.  The circuit must be
    connected to ground (every node needs a resistive path to the ground
    node), otherwise the conductance matrix is singular and
    [Invalid_argument] is raised with the offending node's name.
    Dense LU is used up to 256 nodes; above that, conjugate gradients on
    the sparse conductance matrix. *)

val temperature : solution -> node -> float
(** [temperature s n] is the temperature rise of [n] above ground, K. *)

val max_temperature : solution -> float
(** Largest nodal rise (0 for an empty circuit). *)

val residual_norm : solution -> float
(** [residual_norm s] is ‖G·T − q‖∞ — the KCL violation of the computed
    solution; the test suite asserts it is tiny.  *)

val equivalent_resistance : t -> node -> node -> float
(** [equivalent_resistance c a b] is the Thevenin resistance seen between
    [a] and [b] (heat sources ignored): the temperature difference per
    watt injected at [a] and extracted at [b].  Both nodes may be the
    ground.  [a = b] gives 0.  The circuit must be connected to ground.
    Useful for reducing a subnetwork to the single resistor a
    coarser-grained model wants. *)
