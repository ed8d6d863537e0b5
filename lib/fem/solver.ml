module Grid = Grid
module Robust = Ttsv_robust.Robust
module Diagnostics = Ttsv_robust.Diagnostics
module Vec = Ttsv_numerics.Vec

type result = {
  problem : Problem.t;
  temps : float array;
  iterations : int;
  residual : float;
  diagnostics : Diagnostics.t;
}

(* the face positions per dimension, in Grid.index's order: ir fastest *)
let faces g = [| g.Grid.r_faces; g.Grid.z_faces |]

(* The isothermal sink across the bottom half cell of column [ir] (flat
   index [ir]): the one expression both the assembly and the energy audit
   use. *)
let sink_conductance (p : Problem.t) ir =
  let g = p.Problem.grid in
  1. /. (0.5 *. Grid.dz g 0 /. (Grid.axial_face_area g ir *. p.Problem.conductivity.(ir)))

let assemble ?pool ?extra_diagonal (p : Problem.t) =
  let g = p.Problem.grid in
  (match extra_diagonal with
  | Some d when Array.length d <> Grid.cells g ->
    invalid_arg "Solver.assemble: extra diagonal length mismatch"
  | Some _ | None -> ());
  Fv.assemble ~span:"solver.assemble" ?pool ?extra_diagonal ~faces:(faces g)
    ~conductivity:p.Problem.conductivity ~sink:(sink_conductance p) (fun dim c ->
      if dim = 0 then Grid.radial_face_area g c.(0) c.(1) else Grid.axial_face_area g c.(0))

let try_solve ?(tol = 1e-10) ?max_iter ?x0 ?pool ?rungs ?budget p =
  Fv.ladder_solve ~span:"solver.solve" ~tol
    ~max_iter_for:(fun n -> Stdlib.max 2000 (40 * n))
    ?max_iter ?x0 ?pool ?rungs ?budget ~faces:(faces p.Problem.grid)
    ~conductivity:p.Problem.conductivity ~source:p.Problem.source
    (fun () -> assemble ?pool p)
  |> Result.map (fun (temps, d) ->
         {
           problem = p;
           temps;
           iterations = d.Diagnostics.iterations;
           residual = d.Diagnostics.residual;
           diagnostics = d;
         })

let solve ?tol ?max_iter ?x0 ?pool ?rungs ?budget p =
  match try_solve ?tol ?max_iter ?x0 ?pool ?rungs ?budget p with
  | Ok r -> r
  | Error f -> raise (Robust.Solve_failed f)

let max_rise r = Vec.fold_max 0. r.temps

type transient = { times : float array; max_rises : float array; final : result }

let solve_transient ?(tol = 1e-10) ?pool ~materials ~dt ~steps p =
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
  (* backward Euler: (G + C/dt) T_next = q + (C/dt) T_now; the
     system matrix is assembled once and every step warm-starts CG from the
     previous instant *)
  let cdt = Array.map (fun c -> c /. dt) caps in
  let system = assemble ?pool ~extra_diagonal:cdt p in
  let times = Array.make (steps + 1) 0. in
  let maxes = Array.make (steps + 1) 0. in
  let temps = ref (Array.make n 0.) in
  let total_iters = ref 0 in
  let last_diag = ref Diagnostics.empty in
  for m = 1 to steps do
    let rhs = Array.init n (fun i -> p.Problem.source.(i) +. (cdt.(i) *. !temps.(i))) in
    let x, d =
      Robust.solve_exn ~tol ~max_iter:(Stdlib.max 2000 (40 * n)) ~x0:!temps ?pool system rhs
    in
    temps := x;
    total_iters := !total_iters + d.Diagnostics.iterations;
    last_diag := d;
    times.(m) <- float_of_int m *. dt;
    maxes.(m) <- Vec.fold_max 0. !temps
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

let solve_nonlinear ?tol ?(max_picard = 50) ~materials ~sink_temperature_k p =
  let n = Array.length p.Problem.conductivity in
  if Array.length materials <> n then
    invalid_arg "Solver.solve_nonlinear: materials length mismatch";
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
      if Float.abs (m -. prev_max) <= 1e-4 *. Float.max m 1e-12 then Ok (res, sweep)
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
  (* plain Picard first, then progressively damped retries *)
  let rec escalate = function
    | [] -> assert false
    | theta :: rest -> (
      match attempt theta with
      | Ok r -> Ok r
      | Error (last, change, sweeps) ->
        if rest = [] then Error { sweeps; damping = theta; change; last } else escalate rest)
  in
  escalate [ 1.; 0.5; 0.25 ]

let solve_nonlinear_exn ?tol ?max_picard ~materials ~sink_temperature_k p =
  match solve_nonlinear ?tol ?max_picard ~materials ~sink_temperature_k p with
  | Ok r -> r
  | Error f -> raise (Picard_failed f)

let rise_at res ~r ~z =
  let g = res.problem.Problem.grid in
  let ir = Fv.find_cell g.Grid.r_faces r and iz = Fv.find_cell g.Grid.z_faces z in
  res.temps.(Grid.index g ir iz)

let axis_profile res =
  let g = res.problem.Problem.grid in
  Array.init (Grid.nz g) (fun iz -> (Grid.z_center g iz, res.temps.(Grid.index g 0 iz)))

let energy_imbalance res =
  let p = res.problem in
  Fv.energy_imbalance ~faces:(faces p.Problem.grid) ~sink:(sink_conductance p)
    ~total_source:(Problem.total_source p) res.temps
