module Sparse = Ttsv_numerics.Sparse
module Robust = Ttsv_robust.Robust
module Diagnostics = Ttsv_robust.Diagnostics
module Obs_span = Ttsv_obs.Span

type result = {
  problem : Problem3.t;
  temps : float array;
  iterations : int;
  residual : float;
  diagnostics : Diagnostics.t;
}

(* Row-direct CSR assembly, mirroring the 2-D {!Solver.assemble}: every
   row is built independently with neighbour columns in ascending order
   and a fixed diagonal accumulation order (-z, -y, -x, +x, +y, +z,
   boundary), so rows can be filled per-chunk across a domain pool and
   the pooled matrix is bitwise identical to the sequential one.  Face
   conductances are evaluated in the lower-index orientation so both
   rows sharing a face store exactly opposite off-diagonal values. *)
let assemble_rows ?pool (p : Problem3.t) =
  let g = p.Problem3.grid in
  let nx = Grid3.nx g and ny = Grid3.ny g and nz = Grid3.nz g in
  let n = nx * ny * nz in
  let plane = nx * ny in
  let k ix iy iz = p.Problem3.conductivity.(Grid3.index g ix iy iz) in
  let cond_x ix iy iz =
    Solver.face_conductance (Grid3.face_area_x g iy iz)
      (0.5 *. Grid3.dx g ix)
      (k ix iy iz)
      (0.5 *. Grid3.dx g (ix + 1))
      (k (ix + 1) iy iz)
  in
  let cond_y ix iy iz =
    Solver.face_conductance (Grid3.face_area_y g ix iz)
      (0.5 *. Grid3.dy g iy)
      (k ix iy iz)
      (0.5 *. Grid3.dy g (iy + 1))
      (k ix (iy + 1) iz)
  in
  let cond_z ix iy iz =
    Solver.face_conductance (Grid3.face_area_z g ix iy)
      (0.5 *. Grid3.dz g iz)
      (k ix iy iz)
      (0.5 *. Grid3.dz g (iz + 1))
      (k ix iy (iz + 1))
  in
  (* isothermal sink across the bottom half cell *)
  let bottom_cond ix iy = Grid3.face_area_z g ix iy *. k ix iy 0 /. (0.5 *. Grid3.dz g 0) in
  let row_ptr = Array.make (n + 1) 0 in
  for idx = 0 to n - 1 do
    let ix = idx mod nx and iy = idx / nx mod ny and iz = idx / plane in
    let nn =
      (if iz > 0 then 1 else 0)
      + (if iy > 0 then 1 else 0)
      + (if ix > 0 then 1 else 0)
      + (if ix < nx - 1 then 1 else 0)
      + (if iy < ny - 1 then 1 else 0)
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
    let ix = idx mod nx and iy = idx / nx mod ny and iz = idx / plane in
    let pos = ref row_ptr.(idx) in
    let diag = ref 0. in
    let off j c =
      col_idx.(!pos) <- j;
      values.(!pos) <- -.c;
      incr pos;
      diag := !diag +. c
    in
    if iz > 0 then off (idx - plane) (cond_z ix iy (iz - 1));
    if iy > 0 then off (idx - nx) (cond_y ix (iy - 1) iz);
    if ix > 0 then off (idx - 1) (cond_x (ix - 1) iy iz);
    let dslot = !pos in
    col_idx.(dslot) <- idx;
    incr pos;
    if ix < nx - 1 then off (idx + 1) (cond_x ix iy iz);
    if iy < ny - 1 then off (idx + nx) (cond_y ix iy iz);
    if iz < nz - 1 then off (idx + plane) (cond_z ix iy iz);
    if iz = 0 then diag := !diag +. bottom_cond ix iy;
    values.(dslot) <- !diag
  in
  (match pool with
  | None ->
    for idx = 0 to n - 1 do
      fill_row idx
    done
  | Some pool -> Ttsv_parallel.Pool.parallel_for ~chunk:64 ~min_size:256 pool n fill_row);
  Sparse.of_csr ~nrows:n ~ncols:n ~row_ptr ~col_idx ~values

let assemble ?pool p =
  Obs_span.with_ ~name:"solver3.assemble" (fun () ->
      Solver.record_assembly (assemble_rows ?pool p))

let try_solve ?(tol = 1e-9) ?max_iter ?x0 ?pool ?rungs ?budget p =
  (* Grid3.index: ix fastest, then iy, then iz — the multigrid rung's
     tensor-grid layout *)
  let g = p.Problem3.grid in
  Solver.ladder_solve ~span:"solver3.solve" ~tol
    ~max_iter_for:(fun n -> Stdlib.max 4000 (10 * n))
    ?max_iter ?x0 ?pool ?rungs ?budget
    ~shape:[| Grid3.nx g; Grid3.ny g; Grid3.nz g |]
    ~conductivity:p.Problem3.conductivity ~source:p.Problem3.source
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

let max_rise r = Array.fold_left Float.max 0. r.temps

let rise_at res ~x ~y ~z =
  let g = res.problem.Problem3.grid in
  let ix = Solver.find_cell g.Grid3.x_faces x in
  let iy = Solver.find_cell g.Grid3.y_faces y in
  let iz = Solver.find_cell g.Grid3.z_faces z in
  res.temps.(Grid3.index g ix iy iz)

let sink_heat_flow res =
  let p = res.problem in
  let g = p.Problem3.grid in
  let acc = ref 0. in
  for iy = 0 to Grid3.ny g - 1 do
    for ix = 0 to Grid3.nx g - 1 do
      let idx = Grid3.index g ix iy 0 in
      let a = Grid3.face_area_z g ix iy in
      let cond = a *. p.Problem3.conductivity.(idx) /. (0.5 *. Grid3.dz g 0) in
      acc := !acc +. (cond *. res.temps.(idx))
    done
  done;
  !acc

let energy_imbalance res =
  let src = Problem3.total_source res.problem in
  if src = 0. then 0. else Float.abs (sink_heat_flow res -. src) /. src
