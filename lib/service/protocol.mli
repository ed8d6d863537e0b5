(** The solver service's wire protocol.

    One JSON object per line ([ttsv.request.v1] in, [ttsv.response.v1]
    out), built on the zero-dependency {!Ttsv_obs.Json} value: floats
    are emitted with 17 significant digits and strings through the
    surrogateescape convention, so [request_to_json] followed by
    {!Ttsv_obs.Json.to_string}, {!Ttsv_obs.Json.parse} and
    [request_of_json] reproduces the original request — and its
    re-encoding — byte for byte, for arbitrary byte sequences in the
    request id.

    Decoding is total: a line that is not valid JSON, not a request
    object, or carries malformed fields comes back as a typed {!error}
    value (with the request id attached whenever one could be read), so
    a malformed line in a batch costs one error response, never the
    process. *)

(** {2 Requests} *)

type geometry = {
  radius_um : float;  (** TSV radius *)
  liner_um : float;  (** liner thickness *)
  ild_um : float;  (** ILD/BEOL thickness *)
  bond_um : float;  (** bonding layer thickness *)
  tsi_um : float;  (** substrate thickness of the upper planes *)
  tsi1_um : float;  (** substrate thickness of the first plane *)
  lext_um : float;  (** TSV extension into the first substrate *)
}
(** The paper's block-geometry knobs, all in µm.  Values are untrusted:
    the engine runs them through {!Ttsv_core.Params.block_checked}
    before meshing anything. *)

val default_geometry : geometry
(** The paper's defaults (r = 5, t_L = 1, t_D = 4, t_b = 1, t_Si = 45,
    t_Si1 = 500, l_ext = 1 µm); every omitted request field falls back
    to it. *)

type solve = {
  geometry : geometry;
  resolution : int;  (** finite-volume mesh resolution factor (default 1) *)
  tol : float;  (** relative residual target (default 1e-10) *)
  deadline_s : float option;  (** per-request wall-clock budget *)
}

type sweep_param = Radius | Liner | Tsi

type sweep = {
  base : solve;  (** geometry/solver settings of every point *)
  param : sweep_param;
  from_um : float;
  to_um : float;
  points : int;
}

type chip_alloc = {
  chip_geometry : geometry;  (** per-cell stack the chip tiles repeat *)
  grid : int;  (** tiles per side *)
  size_mm : float;  (** chip edge *)
  power_w : float;  (** total power per plane *)
  hotspot_w : float;  (** extra watts on the hotspot tile *)
  budget_k : float option;  (** allocate TSVs for this max rise; [None] solves bare *)
  candidates : int;  (** tiles trial-solved per allocation step *)
}

type kind = Solve of solve | Sweep of sweep | Chip_alloc of chip_alloc

type request = { id : string; kind : kind }
(** [id] is an arbitrary byte string echoed on the response. *)

(** {2 Responses} *)

type error_code =
  | Bad_json  (** the line did not parse as JSON *)
  | Bad_request  (** parsed, but not a well-formed request *)
  | Invalid_geometry  (** {!Ttsv_core.Params.block_checked} rejected it *)
  | Deadline_exceeded
  | Solver_failure  (** every ladder rung failed *)
  | Internal  (** an unexpected exception, contained *)

type error = {
  code : error_code;
  message : string;
  diagnostics : Ttsv_obs.Json.t option;
      (** {!Ttsv_robust.Diagnostics.to_json} when a solve failed *)
}

type warm = Cold | Warm_exact | Warm_neighbour

type cache_info = {
  operator_hit : bool;
  precond_hit : bool;
      (** always [false]: the engine caches no preconditioner; kept
          (wire field ["precond"]) for readers of [ttsv.response.v1] *)
  warm : warm;
}
(** Which cache levels served this solve — the per-response view of the
    engine's hit counters. *)

type solved = {
  max_rise_k : float;
  iterations : int;
  residual : float;
  rung : string;  (** solver rung that produced the answer *)
  cache : cache_info;
  wall_s : float;
}

type sweep_point = { x_um : float; point_rise_k : float; point_iterations : int }

type swept = {
  sweep_points : sweep_point list;
  sweep_iterations : int;  (** total over all points *)
  warm_starts : int;  (** points that started from a cached solution *)
  sweep_wall_s : float;
}

type allocated = {
  bare_rise_k : float;  (** max rise with no thermal TSVs *)
  final_rise_k : float;  (** max rise after allocation (= bare without a budget) *)
  feasible : bool option;  (** [None] when no budget was requested *)
  metal_area_mm2 : float;
  alloc_iterations : int;
  alloc_wall_s : float;
}

type payload = Solved of solved | Swept of swept | Allocated of allocated

type response = {
  request_id : string option;  (** [None] when the id could not be read *)
  result : (payload, error) result;
}

(** {2 Wire form} *)

val request_schema : string
(** ["ttsv.request.v1"] *)

val response_schema : string
(** ["ttsv.response.v1"] *)

val error_code_name : error_code -> string
val sweep_param_name : sweep_param -> string

val error : ?diagnostics:Ttsv_obs.Json.t -> error_code -> string -> error

val request_to_json : request -> Ttsv_obs.Json.t
(** Canonical encoding: every field explicit, fields in a fixed order —
    the byte-exact round-trip anchor. *)

val request_of_json : Ttsv_obs.Json.t -> (request, string option * error) result
(** Decode one request value.  Omitted optional fields take their
    defaults; a malformed or missing mandatory field is an [Error]
    carrying the id when one was readable. *)

val parse_request : string -> (request, string option * error) result
(** [request_of_json] composed with {!Ttsv_obs.Json.parse}; a line that
    is not JSON maps to [Bad_json] with no id. *)

val response_to_json : response -> Ttsv_obs.Json.t
val response_to_string : response -> string
(** One line, no trailing newline. *)

val solve_key : solve -> string
(** Canonical geometry/params cache key: the seven geometry fields plus
    the resolution, each float printed with 17 significant digits —
    requests that mesh to the same operator share a key, [tol] and
    [deadline_s] (which don't change the operator) are excluded. *)
