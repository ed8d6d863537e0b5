module Params = Ttsv_core.Params
module Model_a = Ttsv_core.Model_a
module Nonlinear = Ttsv_core.Nonlinear
module Stack = Ttsv_geometry.Stack
module Plane = Ttsv_geometry.Plane
module Materials = Ttsv_physics.Materials
module Units = Ttsv_physics.Units
module Problem = Ttsv_fem.Problem
module Solver = Ttsv_fem.Solver

let sink_k = Units.kelvin_of_celsius 27.

(* the Fig. 5 midpoint block with k(T) silicon and scaled power *)
let stack_at power_scale =
  let base = Params.fig5_stack (Units.um 1.) in
  Stack.map_planes base (fun _ p ->
      let p =
        Plane.with_power
          ~device_power_density:(p.Plane.device_power_density *. power_scale)
          ~ild_power_density:(p.Plane.ild_power_density *. power_scale)
          p
      in
      { p with Plane.substrate = Materials.silicon_k_of_t })

let fv_pair ?(resolution = 2) stack =
  let problem = Problem.of_stack ~resolution stack in
  let linear = Solver.max_rise (Solver.solve problem) in
  let materials = Problem.materials_of_stack ~resolution stack in
  let res, sweeps =
    Solver.solve_nonlinear_exn ~materials ~sink_temperature_k:sink_k problem
  in
  (linear, Solver.max_rise res, sweeps)

let model_a_pair stack =
  let coeffs = Reference.block_coefficients () in
  let linear = Model_a.max_rise (Model_a.solve ~coeffs stack) in
  let res, sweeps = Nonlinear.solve ~coeffs ~sink_temperature_k:sink_k stack in
  (linear, Model_a.max_rise res, sweeps)

let power_scales = [ 1.; 2. ]

let run ?resolution () =
  let rows =
    List.concat_map
      (fun scale ->
        let stack = stack_at scale in
        let la, na, sa = model_a_pair stack in
        let lf, nf, sf = fv_pair ?resolution stack in
        let f = Printf.sprintf "%.3f" in
        [
          ( Printf.sprintf "%gx power, Model A" scale,
            [ f la; f na; Report.percent ((na -. la) /. la); string_of_int sa ] );
          ( Printf.sprintf "%gx power, FV" scale,
            [ f lf; f nf; Report.percent ((nf -. lf) /. lf); string_of_int sf ] );
        ])
      power_scales
  in
  {
    Report.title = "Extension - k(T) silicon: linear vs Picard-converged Max dT [C]";
    columns = [ "linear"; "nonlinear"; "penalty"; "sweeps" ];
    rows;
  }

let print ?resolution ppf () =
  Format.fprintf ppf "@[<v>";
  Report.print_table ppf (run ?resolution ());
  Format.fprintf ppf
    "@,silicon k falls as ~T^(-4/3): constant-k models underestimate the rise@,\
     by the penalty column, and the effect compounds with power.@]@."
