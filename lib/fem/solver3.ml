module Robust = Ttsv_robust.Robust
module Diagnostics = Ttsv_robust.Diagnostics
module Vec = Ttsv_numerics.Vec

type result = {
  problem : Problem3.t;
  temps : float array;
  iterations : int;
  residual : float;
  diagnostics : Diagnostics.t;
}

(* the face positions per dimension, in Grid3.index's order: ix fastest,
   then iy, then iz *)
let faces g = [| g.Grid3.x_faces; g.Grid3.y_faces; g.Grid3.z_faces |]

(* The isothermal sink across the bottom half cell [idx] (bottom-layer
   cells come first in {!Grid3.index}): the one expression both the
   assembly and the energy audit use. *)
let sink_conductance (p : Problem3.t) idx =
  let g = p.Problem3.grid in
  let nx = Grid3.nx g in
  Grid3.face_area_z g (idx mod nx) (idx / nx)
  *. p.Problem3.conductivity.(idx)
  /. (0.5 *. Grid3.dz g 0)

let assemble ?pool (p : Problem3.t) =
  let g = p.Problem3.grid in
  Fv.assemble ~span:"solver3.assemble" ?pool ~faces:(faces g)
    ~conductivity:p.Problem3.conductivity ~sink:(sink_conductance p) (fun dim c ->
      match dim with
      | 0 -> Grid3.face_area_x g c.(1) c.(2)
      | 1 -> Grid3.face_area_y g c.(0) c.(2)
      | _ -> Grid3.face_area_z g c.(0) c.(1))

let try_solve ?(tol = 1e-9) ?max_iter ?x0 ?pool ?rungs ?budget p =
  Fv.ladder_solve ~span:"solver3.solve" ~tol
    ~max_iter_for:(fun n -> Stdlib.max 4000 (10 * n))
    ?max_iter ?x0 ?pool ?rungs ?budget ~faces:(faces p.Problem3.grid)
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

let max_rise r = Vec.fold_max 0. r.temps

let rise_at res ~x ~y ~z =
  let g = res.problem.Problem3.grid in
  let ix = Fv.find_cell g.Grid3.x_faces x in
  let iy = Fv.find_cell g.Grid3.y_faces y in
  let iz = Fv.find_cell g.Grid3.z_faces z in
  res.temps.(Grid3.index g ix iy iz)

let energy_imbalance res =
  let p = res.problem in
  Fv.energy_imbalance ~faces:(faces p.Problem3.grid) ~sink:(sink_conductance p)
    ~total_source:(Problem3.total_source p) res.temps
