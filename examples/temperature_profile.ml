(* Vertical temperature profiles: Model B's distributed bulk and TTSV
   columns against the finite-volume axis profile — a view no lumped model
   can give, and the reason the paper's Fig. 1(b) shows three heat paths.

     dune exec examples/temperature_profile.exe *)

module Units = Ttsv_physics.Units
module Params = Ttsv_core.Params
module Model_b = Ttsv_core.Model_b
module Problem = Ttsv_fem.Problem
module Solver = Ttsv_fem.Solver
module Interp = Ttsv_numerics.Interp

let () =
  let stack = Params.block () in
  let b = Model_b.solve_n stack 200 in
  let bulk = Model_b.bulk_profile b in

  (* the FV axis profile starts at the heat sink (z=0); Model B's profile
     starts at the TSV foot, tSi1 - lext above the sink *)
  let foot = Units.um (500. -. 1.) in
  let fv = Solver.solve (Problem.of_stack ~resolution:2 stack) in
  let fv_axis = Solver.axis_profile fv in
  let fv_interp = Interp.of_points (Array.to_list (Array.map (fun (z, t) -> (z, t)) fv_axis)) in

  let metal = Interp.of_points (Array.to_list (Model_b.tsv_profile b)) in

  Format.printf "z above TSV foot [um] | bulk column [K] | TTSV metal [K] | FV axis [K]@.";
  Format.printf "----------------------+-----------------+----------------+-------------@.";
  Array.iter
    (fun (z, t_bulk) ->
      let t_metal = Interp.eval metal z in
      let t_fv = Interp.eval fv_interp (z +. foot) in
      Format.printf "%21.1f | %15.3f | %14.3f | %11.3f@." (Units.to_um z) t_bulk t_metal t_fv)
    (Array.init 12 (fun i ->
         let n = Array.length bulk in
         bulk.(i * (n - 1) / 11)));

  (* where does the lateral heat enter the via? the rung flow is largest
     where bulk and metal differ most *)
  let max_gap = ref (0., 0.) in
  Array.iter
    (fun (z, t_bulk) ->
      let gap = t_bulk -. Interp.eval metal z in
      if gap > snd !max_gap then max_gap := (z, gap))
    bulk;
  let z_star, gap = !max_gap in
  Format.printf
    "@.largest bulk-to-metal temperature gap: %.2f K at z = %.1f um above the TSV foot —@."
    gap (Units.to_um z_star);
  Format.printf "that is where the liner conducts the most lateral heat into the via.@."
