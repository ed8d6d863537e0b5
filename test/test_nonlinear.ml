(* Tests for temperature-dependent-conductivity solving (core Picard + FV
   Picard) and the Thevenin equivalent-resistance extraction. *)

module Units = Ttsv_physics.Units
module Materials = Ttsv_physics.Materials
module Material = Ttsv_physics.Material
module Stack = Ttsv_geometry.Stack
module Plane = Ttsv_geometry.Plane
module Params = Ttsv_core.Params
module Model_a = Ttsv_core.Model_a
module Nonlinear = Ttsv_core.Nonlinear
module Problem = Ttsv_fem.Problem
module Solver = Ttsv_fem.Solver
module Circuit = Ttsv_network.Circuit
open Helpers

let sink_k = Units.kelvin_of_celsius 27.

let kt_stack () =
  Stack.map_planes (Params.fig5_stack (Units.um 1.)) (fun _ p ->
      { p with Plane.substrate = Materials.silicon_k_of_t })

let nonlinear_tests =
  [
    test "constant-k stack: nonlinear equals linear in two sweeps" (fun () ->
        let stack = Params.block () in
        let linear = Model_a.max_rise (Model_a.solve stack) in
        let r, sweeps = Nonlinear.solve ~sink_temperature_k:sink_k stack in
        close_rel ~tol:1e-12 "same" linear (Model_a.max_rise r);
        Alcotest.(check int) "two sweeps" 2 sweeps);
    test "k(T) silicon runs hotter than its 300 K baseline" (fun () ->
        let stack = kt_stack () in
        let linear = Model_a.max_rise (Model_a.solve stack) in
        let r, sweeps = Nonlinear.solve ~sink_temperature_k:sink_k stack in
        Alcotest.(check bool) "hotter" true (Model_a.max_rise r > linear);
        Alcotest.(check bool) "needed iterations" true (sweeps > 2));
    test "FV Picard: constant-k returns the linear solution" (fun () ->
        let stack = Params.block () in
        let problem = Problem.of_stack stack in
        let linear = Solver.max_rise (Solver.solve problem) in
        let materials = Problem.materials_of_stack stack in
        let res, sweeps =
          Solver.solve_nonlinear_exn ~materials ~sink_temperature_k:sink_k problem
        in
        close_rel ~tol:1e-9 "same" linear (Solver.max_rise res);
        Alcotest.(check int) "two sweeps" 2 sweeps);
    test "FV Picard: k(T) runs hotter and conserves energy" (fun () ->
        let stack = kt_stack () in
        let problem = Problem.of_stack stack in
        let linear = Solver.max_rise (Solver.solve problem) in
        let materials = Problem.materials_of_stack stack in
        let res, _ =
          Solver.solve_nonlinear_exn ~materials ~sink_temperature_k:sink_k problem
        in
        Alcotest.(check bool) "hotter" true (Solver.max_rise res > linear);
        Alcotest.(check bool) "conserves" true (Solver.energy_imbalance res < 1e-6));
    test "FV Picard failure is typed and carries the last iterate" (fun () ->
        let problem = Problem.of_stack (Params.block ()) in
        let materials = Problem.materials_of_stack (Params.block ()) in
        (* one sweep can never satisfy the settle test, so every damping
           rung is exhausted and the structured failure surfaces *)
        match
          Solver.solve_nonlinear ~max_picard:1 ~materials ~sink_temperature_k:sink_k
            problem
        with
        | Ok _ -> Alcotest.fail "expected a Picard failure with max_picard = 1"
        | Error f ->
          Alcotest.(check int) "one sweep" 1 f.Solver.sweeps;
          Alcotest.(check bool) "most damped rung was tried" true (f.Solver.damping < 1.);
          Alcotest.(check bool) "last iterate attached" true
            (Solver.max_rise f.Solver.last > 0.);
          Alcotest.(check bool) "residual attached" true
            (Float.is_finite f.Solver.last.Solver.residual));
    test "FV Picard validates the materials map" (fun () ->
        let problem = Problem.of_stack (Params.block ()) in
        check_raises_invalid "length" (fun () ->
            ignore
              (Solver.solve_nonlinear ~materials:[| Materials.silicon |]
                 ~sink_temperature_k:sink_k problem)));
    test "materials map places copper on the axis" (fun () ->
        let stack = Params.block () in
        let materials = Problem.materials_of_stack stack in
        let p = Problem.of_stack stack in
        Array.iteri
          (fun i (m : Material.t) ->
            close_rel "k matches material" m.Material.conductivity p.Problem.conductivity.(i))
          materials;
        Alcotest.(check bool) "has copper cells" true
          (Array.exists (fun (m : Material.t) -> m.Material.name = "copper") materials));
  ]

let thevenin_tests =
  [
    test "series chain resistance" (fun () ->
        let c = Circuit.create () in
        let g = Circuit.ground c in
        let a = Circuit.add_node c "a" in
        let b = Circuit.add_node c "b" in
        Circuit.add_resistor c g a 3.;
        Circuit.add_resistor c a b 7.;
        close_rel "a-b" 7. (Circuit.equivalent_resistance c a b);
        close_rel "g-b" 10. (Circuit.equivalent_resistance c g b);
        close "self" 0. (Circuit.equivalent_resistance c a a));
    test "wheatstone-like bridge" (fun () ->
        (* two parallel 2-resistor branches between ground and top:
           (1+1) || (2+2) = 2*4/6 = 4/3 *)
        let c = Circuit.create () in
        let g = Circuit.ground c in
        let top = Circuit.add_node c "top" in
        let m1 = Circuit.add_node c "m1" in
        let m2 = Circuit.add_node c "m2" in
        Circuit.add_resistor c g m1 1.;
        Circuit.add_resistor c m1 top 1.;
        Circuit.add_resistor c g m2 2.;
        Circuit.add_resistor c m2 top 2.;
        close_rel "parallel branches" (4. /. 3.) (Circuit.equivalent_resistance c g top));
    test "sources do not affect the equivalent resistance" (fun () ->
        let c = Circuit.create () in
        let g = Circuit.ground c in
        let a = Circuit.add_node c "a" in
        Circuit.add_resistor c g a 5.;
        Circuit.add_heat_source c a 100.;
        close_rel "r" 5. (Circuit.equivalent_resistance c g a));
    test "model A network: foot-to-top equivalent is below the bulk chain" (fun () ->
        (* the TTSV provides a parallel path, so the two-port resistance
           from T0 to the top bulk node must be smaller than the series
           bulk resistances alone *)
        let stack = Params.block () in
        let rs = Ttsv_core.Resistances.of_stack stack in
        let c, nodes = walk_circuit rs (Stack.heat_inputs stack) in
        let series_bulk =
          Array.fold_left (fun acc (t : Ttsv_core.Resistances.triple) -> acc +. t.Ttsv_core.Resistances.bulk) 0.
            rs.Ttsv_core.Resistances.triples
        in
        (* T0 is node 0 and the top bulk node 2 * 2 + 1 *)
        let eq = Circuit.equivalent_resistance c nodes.(0) nodes.(5) in
        Alcotest.(check bool)
          (Printf.sprintf "eq %.1f < series %.1f" eq series_bulk)
          true (eq < series_bulk));
  ]

let suite = ("nonlinear+thevenin", nonlinear_tests @ thevenin_tests)
