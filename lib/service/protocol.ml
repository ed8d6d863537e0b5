module Json = Ttsv_obs.Json

type geometry = {
  radius_um : float;
  liner_um : float;
  ild_um : float;
  bond_um : float;
  tsi_um : float;
  tsi1_um : float;
  lext_um : float;
}

let default_geometry =
  {
    radius_um = 5.;
    liner_um = 1.;
    ild_um = 4.;
    bond_um = 1.;
    tsi_um = 45.;
    tsi1_um = 500.;
    lext_um = 1.;
  }

type solve = { geometry : geometry; resolution : int; tol : float; deadline_s : float option }
type sweep_param = Radius | Liner | Tsi

type sweep = {
  base : solve;
  param : sweep_param;
  from_um : float;
  to_um : float;
  points : int;
}

type chip_alloc = {
  chip_geometry : geometry;
  grid : int;
  size_mm : float;
  power_w : float;
  hotspot_w : float;
  budget_k : float option;
  candidates : int;
}

type kind = Solve of solve | Sweep of sweep | Chip_alloc of chip_alloc
type request = { id : string; kind : kind }

type error_code =
  | Bad_json
  | Bad_request
  | Invalid_geometry
  | Deadline_exceeded
  | Solver_failure
  | Internal

type error = { code : error_code; message : string; diagnostics : Json.t option }
type warm = Cold | Warm_exact | Warm_neighbour
type cache_info = { operator_hit : bool; precond_hit : bool; warm : warm }

type solved = {
  max_rise_k : float;
  iterations : int;
  residual : float;
  rung : string;
  cache : cache_info;
  wall_s : float;
}

type sweep_point = { x_um : float; point_rise_k : float; point_iterations : int }

type swept = {
  sweep_points : sweep_point list;
  sweep_iterations : int;
  warm_starts : int;
  sweep_wall_s : float;
}

type allocated = {
  bare_rise_k : float;
  final_rise_k : float;
  feasible : bool option;
  metal_area_mm2 : float;
  alloc_iterations : int;
  alloc_wall_s : float;
}

type payload = Solved of solved | Swept of swept | Allocated of allocated
type response = { request_id : string option; result : (payload, error) result }

let request_schema = "ttsv.request.v1"
let response_schema = "ttsv.response.v1"

let error_code_name = function
  | Bad_json -> "bad_json"
  | Bad_request -> "bad_request"
  | Invalid_geometry -> "invalid_geometry"
  | Deadline_exceeded -> "deadline_exceeded"
  | Solver_failure -> "solver_failure"
  | Internal -> "internal"

let sweep_param_name = function Radius -> "radius" | Liner -> "liner" | Tsi -> "tsi"
let error ?diagnostics code message = { code; message; diagnostics }

(* ---------------------------------------------------------------- encoding *)

let geometry_to_json g =
  Json.Obj
    [
      ("radius_um", Json.Float g.radius_um);
      ("liner_um", Json.Float g.liner_um);
      ("ild_um", Json.Float g.ild_um);
      ("bond_um", Json.Float g.bond_um);
      ("tsi_um", Json.Float g.tsi_um);
      ("tsi1_um", Json.Float g.tsi1_um);
      ("lext_um", Json.Float g.lext_um);
    ]

let opt_float = function None -> Json.Null | Some x -> Json.Float x

let solve_fields s =
  [
    ("geometry", geometry_to_json s.geometry);
    ("resolution", Json.Int s.resolution);
    ("tol", Json.Float s.tol);
    ("deadline_s", opt_float s.deadline_s);
  ]

let request_to_json r =
  let head kind = [ ("schema", Json.String request_schema); ("id", Json.String r.id);
                    ("kind", Json.String kind) ]
  in
  match r.kind with
  | Solve s -> Json.Obj (head "solve" @ solve_fields s)
  | Sweep sw ->
    Json.Obj
      (head "sweep" @ solve_fields sw.base
      @ [
          ("param", Json.String (sweep_param_name sw.param));
          ("from_um", Json.Float sw.from_um);
          ("to_um", Json.Float sw.to_um);
          ("points", Json.Int sw.points);
        ])
  | Chip_alloc c ->
    Json.Obj
      (head "chip_alloc"
      @ [
          ("geometry", geometry_to_json c.chip_geometry);
          ("grid", Json.Int c.grid);
          ("size_mm", Json.Float c.size_mm);
          ("power_w", Json.Float c.power_w);
          ("hotspot_w", Json.Float c.hotspot_w);
          ("budget_k", opt_float c.budget_k);
          ("candidates", Json.Int c.candidates);
        ])

(* ---------------------------------------------------------------- decoding *)

(* Field accessors are total: [Ok default] when the field is absent,
   [Error what] when it is present with the wrong type — a typo'd value
   must not be silently replaced by a default. *)

let field_float j name default =
  match Json.member name j with
  | None | Some Json.Null -> Ok default
  | Some v -> (
    match Json.to_float_opt v with
    | Some x -> Ok x
    | None -> Error (Printf.sprintf "field %S must be a number" name))

let field_int j name default =
  match Json.member name j with
  | None | Some Json.Null -> Ok default
  | Some v -> (
    match Json.to_int_opt v with
    | Some x -> Ok x
    | None -> Error (Printf.sprintf "field %S must be an integer" name))

let field_opt_float j name =
  match Json.member name j with
  | None | Some Json.Null -> Ok None
  | Some v -> (
    match Json.to_float_opt v with
    | Some x -> Ok (Some x)
    | None -> Error (Printf.sprintf "field %S must be a number or null" name))

let ( let* ) = Result.bind

let geometry_of_json j =
  match Json.member "geometry" j with
  | None | Some Json.Null -> Ok default_geometry
  | Some (Json.Obj _ as g) ->
    let d = default_geometry in
    let* radius_um = field_float g "radius_um" d.radius_um in
    let* liner_um = field_float g "liner_um" d.liner_um in
    let* ild_um = field_float g "ild_um" d.ild_um in
    let* bond_um = field_float g "bond_um" d.bond_um in
    let* tsi_um = field_float g "tsi_um" d.tsi_um in
    let* tsi1_um = field_float g "tsi1_um" d.tsi1_um in
    let* lext_um = field_float g "lext_um" d.lext_um in
    Ok { radius_um; liner_um; ild_um; bond_um; tsi_um; tsi1_um; lext_um }
  | Some _ -> Error "field \"geometry\" must be an object"

let solve_of_json j =
  let* geometry = geometry_of_json j in
  let* resolution = field_int j "resolution" 1 in
  let* tol = field_float j "tol" 1e-10 in
  let* deadline_s = field_opt_float j "deadline_s" in
  Ok { geometry; resolution; tol; deadline_s }

let sweep_param_of_string = function
  | "radius" -> Ok Radius
  | "liner" -> Ok Liner
  | "tsi" -> Ok Tsi
  | other -> Error (Printf.sprintf "unknown sweep param %S (radius, liner or tsi)" other)

let kind_of_json j = function
  | "solve" ->
    let* s = solve_of_json j in
    Ok (Solve s)
  | "sweep" ->
    let* base = solve_of_json j in
    let* param =
      match Json.member "param" j with
      | None -> Ok Radius
      | Some v -> (
        match Json.to_string_opt v with
        | Some s -> sweep_param_of_string s
        | None -> Error "field \"param\" must be a string")
    in
    let* from_um = field_float j "from_um" 1. in
    let* to_um = field_float j "to_um" 20. in
    let* points = field_int j "points" 10 in
    Ok (Sweep { base; param; from_um; to_um; points })
  | "chip_alloc" ->
    let* chip_geometry = geometry_of_json j in
    let* grid = field_int j "grid" 10 in
    let* size_mm = field_float j "size_mm" 4. in
    let* power_w = field_float j "power_w" 10. in
    let* hotspot_w = field_float j "hotspot_w" 5. in
    let* budget_k = field_opt_float j "budget_k" in
    let* candidates = field_int j "candidates" 1 in
    Ok (Chip_alloc { chip_geometry; grid; size_mm; power_w; hotspot_w; budget_k; candidates })
  | other -> Error (Printf.sprintf "unknown kind %S (solve, sweep or chip_alloc)" other)

let request_of_json j =
  (* the id is recovered before anything else so even a rejected request
     gets its error response routed back to the right caller *)
  let id = Option.bind (Json.member "id" j) Json.to_string_opt in
  let fail msg = Error (id, error Bad_request msg) in
  match j with
  | Json.Obj _ -> (
    match Option.map Json.to_string_opt (Json.member "schema" j) with
    | None -> fail "missing \"schema\" field"
    | Some None -> fail "field \"schema\" must be a string"
    | Some (Some s) when s <> request_schema ->
      fail (Printf.sprintf "unsupported schema %S (expected %S)" s request_schema)
    | Some (Some _) -> (
      match id with
      | None -> fail "missing or non-string \"id\" field"
      | Some id -> (
        match Option.map Json.to_string_opt (Json.member "kind" j) with
        | None -> fail "missing \"kind\" field"
        | Some None -> fail "field \"kind\" must be a string"
        | Some (Some kind) -> (
          match kind_of_json j kind with
          | Ok kind -> Ok { id; kind }
          | Error msg -> Error (Some id, error Bad_request msg)))))
  | _ -> fail "request must be a JSON object"

let parse_request line =
  match Json.parse line with
  | Error msg -> Error (None, error Bad_json ("not valid JSON: " ^ msg))
  | Ok j -> request_of_json j

(* --------------------------------------------------------------- responses *)

let warm_name = function Cold -> "cold" | Warm_exact -> "exact" | Warm_neighbour -> "neighbour"

let cache_to_json c =
  Json.Obj
    [
      ("operator", Json.Bool c.operator_hit);
      ("precond", Json.Bool c.precond_hit);
      ("warm", Json.String (warm_name c.warm));
    ]

let payload_fields = function
  | Solved s ->
    [
      ("kind", Json.String "solve");
      ("max_rise_k", Json.Float s.max_rise_k);
      ("iterations", Json.Int s.iterations);
      ("residual", Json.Float s.residual);
      ("rung", Json.String s.rung);
      ("cache", cache_to_json s.cache);
      ("wall_s", Json.Float s.wall_s);
    ]
  | Swept s ->
    [
      ("kind", Json.String "sweep");
      ( "points",
        Json.List
          (List.map
             (fun p ->
               Json.Obj
                 [
                   ("x_um", Json.Float p.x_um);
                   ("max_rise_k", Json.Float p.point_rise_k);
                   ("iterations", Json.Int p.point_iterations);
                 ])
             s.sweep_points) );
      ("iterations", Json.Int s.sweep_iterations);
      ("warm_starts", Json.Int s.warm_starts);
      ("wall_s", Json.Float s.sweep_wall_s);
    ]
  | Allocated a ->
    [
      ("kind", Json.String "chip_alloc");
      ("bare_max_rise_k", Json.Float a.bare_rise_k);
      ("max_rise_k", Json.Float a.final_rise_k);
      ("feasible", match a.feasible with None -> Json.Null | Some b -> Json.Bool b);
      ("metal_area_mm2", Json.Float a.metal_area_mm2);
      ("iterations", Json.Int a.alloc_iterations);
      ("wall_s", Json.Float a.alloc_wall_s);
    ]

let response_to_json r =
  let id = match r.request_id with None -> Json.Null | Some id -> Json.String id in
  let head status = [ ("schema", Json.String response_schema); ("id", id);
                      ("status", Json.String status) ]
  in
  match r.result with
  | Ok payload -> Json.Obj (head "ok" @ payload_fields payload)
  | Error e ->
    Json.Obj
      (head "error"
      @ [
          ( "error",
            Json.Obj
              [
                ("code", Json.String (error_code_name e.code));
                ("message", Json.String e.message);
                ( "diagnostics",
                  match e.diagnostics with None -> Json.Null | Some d -> d );
              ] );
        ])

let response_to_string r = Json.to_string (response_to_json r)

(* ------------------------------------------------------------------- keys *)

(* the 64-bit patterns of the seven geometry floats, then the
   resolution, 8 little-endian bytes each: keys are equal exactly when
   the fields are bit-equal, and no float is formatted (seven %.17g
   prints took ~2.4 us, this takes ~0.02 us) *)
let solve_key s =
  let g = s.geometry in
  let key = Bytes.create 64 in
  let put i v = Bytes.set_int64_le key (8 * i) (Int64.bits_of_float v) in
  put 0 g.radius_um;
  put 1 g.liner_um;
  put 2 g.ild_um;
  put 3 g.bond_um;
  put 4 g.tsi_um;
  put 5 g.tsi1_um;
  put 6 g.lext_um;
  Bytes.set_int64_le key 56 (Int64.of_int s.resolution);
  Bytes.unsafe_to_string key
