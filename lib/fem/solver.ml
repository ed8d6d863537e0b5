module Grid = Grid
module Sparse = Ttsv_numerics.Sparse
module Iterative = Ttsv_numerics.Iterative
module Robust = Ttsv_robust.Robust
module Diagnostics = Ttsv_robust.Diagnostics
module Validate = Ttsv_robust.Validate
module Obs_span = Ttsv_obs.Span
module Obs_metrics = Ttsv_obs.Metrics

let m_nnz = Obs_metrics.Gauge.make "assembly.nnz"
let m_cells = Obs_metrics.Gauge.make "grid.cells"

(* record assembled-system shape: gauges for the registry and, when a
   trace is open, a point event tied to the enclosing assembly span *)
let record_assembly matrix =
  if Ttsv_obs.Flags.enabled () then begin
    let nnz = Sparse.nnz matrix in
    Obs_metrics.Gauge.set m_nnz (float_of_int nnz);
    Obs_metrics.Gauge.set m_cells (float_of_int (Sparse.rows matrix));
    if Ttsv_obs.Flags.trace_on () then
      Ttsv_obs.Sink.metric ?span:(Obs_span.current ()) ~kind:"gauge" ~name:"assembly.nnz"
        (Ttsv_obs.Json.Int nnz)
  end;
  matrix

type result = {
  problem : Problem.t;
  temps : float array;
  iterations : int;
  residual : float;
  diagnostics : Diagnostics.t;
}

(* Series (harmonic) combination of the two half-cell conductances across an
   internal face of area [a]. *)
let face_conductance a d1 k1 d2 k2 = a /. ((d1 /. k1) +. (d2 /. k2))

(* Row-direct CSR assembly: each matrix row is built independently —
   neighbour columns in ascending order, the diagonal accumulated in a
   fixed (-z, -r, +r, +z, boundary, extra) order — so rows can be filled
   per-chunk across a domain pool and the pooled matrix is bitwise
   identical to the sequential one.  Face conductances are evaluated in a
   canonical (lower-index) orientation, so the two rows sharing a face
   store exactly opposite off-diagonal values. *)
let assemble_rows ?pool ?bottom_h ?extra_diagonal (p : Problem.t) =
  let g = p.Problem.grid in
  let nr = Grid.nr g and nz = Grid.nz g in
  let n = nr * nz in
  (match extra_diagonal with
  | Some d when Array.length d <> n ->
    invalid_arg "Solver.assemble: extra diagonal length mismatch"
  | Some _ | None -> ());
  (match bottom_h with
  | Some h when h <= 0. -> invalid_arg "Solver.solve: bottom_h must be positive"
  | Some _ | None -> ());
  let k ir iz = p.Problem.conductivity.(Grid.index g ir iz) in
  let cond_r ir iz =
    face_conductance (Grid.radial_face_area g ir iz)
      (0.5 *. Grid.dr g ir)
      (k ir iz)
      (0.5 *. Grid.dr g (ir + 1))
      (k (ir + 1) iz)
  in
  let cond_z ir iz =
    face_conductance (Grid.axial_face_area g ir)
      (0.5 *. Grid.dz g iz)
      (k ir iz)
      (0.5 *. Grid.dz g (iz + 1))
      (k ir (iz + 1))
  in
  (* bottom boundary: isothermal sink across the half cell, or a
     convective film in series with it *)
  let bottom_cond ir =
    let a = Grid.axial_face_area g ir in
    let half_cell = 0.5 *. Grid.dz g 0 /. (a *. k ir 0) in
    match bottom_h with
    | None -> 1. /. half_cell
    | Some h -> 1. /. (half_cell +. (1. /. (h *. a)))
  in
  let row_ptr = Array.make (n + 1) 0 in
  for idx = 0 to n - 1 do
    let ir = idx mod nr and iz = idx / nr in
    let nn =
      (if iz > 0 then 1 else 0)
      + (if ir > 0 then 1 else 0)
      + (if ir < nr - 1 then 1 else 0)
      + if iz < nz - 1 then 1 else 0
    in
    row_ptr.(idx + 1) <- nn + 1
  done;
  for i = 1 to n do
    row_ptr.(i) <- row_ptr.(i) + row_ptr.(i - 1)
  done;
  let col_idx = Array.make row_ptr.(n) 0 in
  let values = Array.make row_ptr.(n) 0. in
  let fill_row idx =
    let ir = idx mod nr and iz = idx / nr in
    let pos = ref row_ptr.(idx) in
    let diag = ref 0. in
    let off j c =
      col_idx.(!pos) <- j;
      values.(!pos) <- -.c;
      incr pos;
      diag := !diag +. c
    in
    if iz > 0 then off (idx - nr) (cond_z ir (iz - 1));
    if ir > 0 then off (idx - 1) (cond_r (ir - 1) iz);
    let dslot = !pos in
    col_idx.(dslot) <- idx;
    incr pos;
    if ir < nr - 1 then off (idx + 1) (cond_r ir iz);
    if iz < nz - 1 then off (idx + nr) (cond_z ir iz);
    if iz = 0 then diag := !diag +. bottom_cond ir;
    (match extra_diagonal with None -> () | Some d -> diag := !diag +. d.(idx));
    values.(dslot) <- !diag
  in
  (match pool with
  | None ->
    for idx = 0 to n - 1 do
      fill_row idx
    done
  | Some pool -> Ttsv_parallel.Pool.parallel_for ~chunk:64 ~min_size:256 pool n fill_row);
  Sparse.of_csr ~nrows:n ~ncols:n ~row_ptr ~col_idx ~values

let assemble ?pool ?bottom_h ?extra_diagonal p =
  Obs_span.with_ ~name:"solver.assemble" (fun () ->
      record_assembly (assemble_rows ?pool ?bottom_h ?extra_diagonal p))

(* Reject physically meaningless fields before assembling: a single NaN
   conductivity or source poisons the whole system. *)
let check_fields ~conductivity ~source =
  let bad name arr pred =
    match Array.exists (fun v -> not (pred v)) arr with
    | false -> []
    | true ->
      let i = ref 0 in
      Array.iteri (fun j v -> if not (pred v) && !i = 0 then i := j) arr;
      [ Printf.sprintf "%s contains invalid entries (first at cell %d)" name !i ]
  in
  match
    bad "conductivity field" conductivity (fun k -> Float.is_finite k && k > 0.)
    @ bad "source field" source Float.is_finite
  with
  | [] -> Ok ()
  | problems ->
    Error
      {
        Robust.reason = Robust.Invalid_input problems;
        diagnostics = Diagnostics.empty;
        best = None;
        best_residual = Float.nan;
      }

let try_solve ?(tol = 1e-10) ?max_iter ?x0 ?bottom_h ?pool ?rungs ?budget p =
  match check_fields ~conductivity:p.Problem.conductivity ~source:p.Problem.source with
  | Error f -> Error f
  | Ok () -> (
    let matrix = assemble ?pool ?bottom_h p in
    let n = Sparse.rows matrix in
    let max_iter = match max_iter with Some m -> m | None -> Stdlib.max 2000 (40 * n) in
    (* declare the unknowns' tensor-grid layout (Grid.index: ir fastest)
       so a pinned multigrid rung can build its hierarchy *)
    let g = p.Problem.grid in
    let shape = [| Grid.nr g; Grid.nz g |] in
    match
      Obs_span.with_ ~name:"solver.solve" (fun () ->
          Robust.solve ~tol ~max_iter ?x0 ?pool ?rungs ~shape ?budget matrix
            p.Problem.source)
    with
    | Error f -> Error f
    | Ok (x, d) ->
      Ok
        {
          problem = p;
          temps = x;
          iterations = d.Diagnostics.iterations;
          residual = d.Diagnostics.residual;
          diagnostics = d;
        })

let solve ?tol ?max_iter ?x0 ?bottom_h ?pool ?rungs ?budget p =
  match try_solve ?tol ?max_iter ?x0 ?bottom_h ?pool ?rungs ?budget p with
  | Ok r -> r
  | Error f -> raise (Robust.Solve_failed f)

let max_rise r = Array.fold_left Float.max 0. r.temps

type transient = { times : float array; max_rises : float array; final : result }

let solve_transient ?(tol = 1e-10) ?bottom_h ?(power = fun _ -> 1.) ?pool ~materials ~dt
    ~steps p =
  if dt <= 0. then invalid_arg "Solver.solve_transient: dt must be positive";
  if steps < 1 then invalid_arg "Solver.solve_transient: steps must be >= 1";
  let n = Array.length p.Problem.conductivity in
  if Array.length materials <> n then
    invalid_arg "Solver.solve_transient: materials length mismatch";
  let module Material = Ttsv_physics.Material in
  let g = p.Problem.grid in
  let nr = Grid.nr g in
  let caps =
    Array.init n (fun i ->
        Grid.volume g (i mod nr) (i / nr)
        *. materials.(i).Material.volumetric_heat_capacity)
  in
  (* backward Euler: (G + C/dt) T_next = q(t_next) + (C/dt) T_now; the
     system matrix is assembled once and every step warm-starts CG from the
     previous instant *)
  let cdt = Array.map (fun c -> c /. dt) caps in
  let system = assemble ?pool ?bottom_h ~extra_diagonal:cdt p in
  let times = Array.make (steps + 1) 0. in
  let maxes = Array.make (steps + 1) 0. in
  let temps = ref (Array.make n 0.) in
  let total_iters = ref 0 in
  let last_diag = ref Diagnostics.empty in
  for m = 1 to steps do
    let time = float_of_int m *. dt in
    let scale = power time in
    let rhs =
      Array.init n (fun i -> (p.Problem.source.(i) *. scale) +. (cdt.(i) *. !temps.(i)))
    in
    let x, d =
      Robust.solve_exn ~tol ~max_iter:(Stdlib.max 2000 (40 * n)) ~x0:!temps ?pool system rhs
    in
    temps := x;
    total_iters := !total_iters + d.Diagnostics.iterations;
    last_diag := d;
    times.(m) <- time;
    maxes.(m) <- Array.fold_left Float.max 0. !temps
  done;
  {
    times;
    max_rises = maxes;
    final =
      {
        problem = p;
        temps = !temps;
        iterations = !total_iters;
        residual = !last_diag.Diagnostics.residual;
        diagnostics = !last_diag;
      };
  }

type picard_failure = { sweeps : int; damping : float; change : float; last : result }

exception Picard_failed of picard_failure

let default_dampings = [ 1.; 0.5; 0.25 ]

let solve_nonlinear ?tol ?(picard_tol = 1e-4) ?(max_picard = 50) ?(dampings = default_dampings)
    ~materials ~sink_temperature_k p =
  let n = Array.length p.Problem.conductivity in
  if Array.length materials <> n then
    invalid_arg "Solver.solve_nonlinear: materials length mismatch";
  if dampings = [] then invalid_arg "Solver.solve_nonlinear: dampings must be nonempty";
  List.iter
    (fun d ->
      if not (Float.is_finite d) || d <= 0. || d > 1. then
        invalid_arg "Solver.solve_nonlinear: damping factors must lie in (0, 1]")
    dampings;
  let module Material = Ttsv_physics.Material in
  (* One Picard attempt at a fixed damping: each sweep relaxes the
     conductivity field toward k(T of the last solve) by [theta]. *)
  let attempt theta =
    let rec picard sweep conductivity prev_max =
      let problem =
        if sweep = 1 then p
        else Problem.make ~grid:p.Problem.grid ~conductivity ~source:p.Problem.source
      in
      let res = solve ?tol problem in
      let m = max_rise res in
      let change = Float.abs (m -. prev_max) /. Float.max m 1e-12 in
      if Float.abs (m -. prev_max) <= picard_tol *. Float.max m 1e-12 then Ok (res, sweep)
      else if sweep >= max_picard then Error (res, change, sweep)
      else begin
        let next =
          Array.init n (fun i ->
              let target =
                Material.k_at materials.(i) (sink_temperature_k +. res.temps.(i))
              in
              ((1. -. theta) *. conductivity.(i)) +. (theta *. target))
        in
        picard (sweep + 1) next m
      end
    in
    picard 1 (Array.copy p.Problem.conductivity) Float.neg_infinity
  in
  let rec escalate = function
    | [] -> assert false
    | theta :: rest -> (
      match attempt theta with
      | Ok r -> Ok r
      | Error (last, change, sweeps) ->
        if rest = [] then Error { sweeps; damping = theta; change; last } else escalate rest)
  in
  escalate dampings

let solve_nonlinear_exn ?tol ?picard_tol ?max_picard ?dampings ~materials ~sink_temperature_k
    p =
  match
    solve_nonlinear ?tol ?picard_tol ?max_picard ?dampings ~materials ~sink_temperature_k p
  with
  | Ok r -> r
  | Error f -> raise (Picard_failed f)

let find_cell faces x =
  let n = Array.length faces - 1 in
  if x <= faces.(0) then 0
  else if x >= faces.(n) then n - 1
  else begin
    let lo = ref 0 and hi = ref n in
    while !hi - !lo > 1 do
      let m = (!lo + !hi) / 2 in
      if faces.(m) <= x then lo := m else hi := m
    done;
    !lo
  end

let rise_at res ~r ~z =
  let g = res.problem.Problem.grid in
  let ir = find_cell g.Grid.r_faces r and iz = find_cell g.Grid.z_faces z in
  res.temps.(Grid.index g ir iz)

let top_rise_profile res =
  let g = res.problem.Problem.grid in
  let nz = Grid.nz g in
  Array.init (Grid.nr g) (fun ir -> (Grid.r_center g ir, res.temps.(Grid.index g ir (nz - 1))))

let axis_profile res =
  let g = res.problem.Problem.grid in
  Array.init (Grid.nz g) (fun iz -> (Grid.z_center g iz, res.temps.(Grid.index g 0 iz)))

let sink_heat_flow res =
  let p = res.problem in
  let g = p.Problem.grid in
  let acc = ref 0. in
  for ir = 0 to Grid.nr g - 1 do
    let idx = Grid.index g ir 0 in
    let a = Grid.axial_face_area g ir in
    let cond = a *. p.Problem.conductivity.(idx) /. (0.5 *. Grid.dz g 0) in
    acc := !acc +. (cond *. res.temps.(idx))
  done;
  !acc

let energy_imbalance res =
  let src = Problem.total_source res.problem in
  if src = 0. then 0. else Float.abs (sink_heat_flow res -. src) /. src
