(* Cross-module integration tests: independent implementations of the same
   physics must agree. *)

module Units = Ttsv_physics.Units
module Params = Ttsv_core.Params
module Model_a = Ttsv_core.Model_a
module Model_b = Ttsv_core.Model_b
module Model_1d = Ttsv_core.Model_1d
module Cluster = Ttsv_core.Cluster
module Coefficients = Ttsv_core.Coefficients
module Calibrate = Ttsv_core.Calibrate
module Package = Ttsv_core.Package
module Stack = Ttsv_geometry.Stack
module Problem = Ttsv_fem.Problem
module Solver = Ttsv_fem.Solver
module Report = Ttsv_experiments.Report
module Export = Ttsv_experiments.Export
open Helpers

let integration_tests =
  [
    test "calibrated Model A beats the unity coefficients on the reference" (fun () ->
        let stacks = List.map (fun tl -> Params.fig5_stack (Units.um tl)) [ 0.5; 1.5; 3. ] in
        let samples =
          List.map
            (fun stack ->
              {
                Calibrate.stack;
                reference = Solver.max_rise (Solver.solve (Problem.of_stack ~resolution:2 stack));
              })
            stacks
        in
        let fit = Calibrate.fit samples in
        Alcotest.(check bool) "improves" true
          (Calibrate.objective fit.Calibrate.coefficients samples
          < Calibrate.objective Coefficients.unity samples);
        (* and the fitted constants land in the paper's neighbourhood *)
        Alcotest.(check bool) "k1 near paper" true
          (Float.abs (fit.Calibrate.coefficients.Coefficients.k1 -. 1.3) < 0.4);
        Alcotest.(check bool) "k2 near paper" true
          (Float.abs (fit.Calibrate.coefficients.Coefficients.k2 -. 0.55) < 0.4));
    test "Model B(500) tracks the FV reference on a random stack" (fun () ->
        let stack = Params.block ~r:(Units.um 7.) ~t_si23:(Units.um 30.) () in
        let b = Model_b.max_rise (Model_b.solve_n stack 500) in
        let fv = Solver.max_rise (Solver.solve (Problem.of_stack ~resolution:2 stack)) in
        Alcotest.(check bool)
          (Printf.sprintf "B=%.2f vs FV=%.2f" b fv)
          true
          (Float.abs (b -. fv) /. fv < 0.06));
    test "cluster: Model B with ~eq. 22 rungs orders like Model A with eq. 22" (fun () ->
        let stack = Params.fig7_stack () in
        List.iter
          (fun (n1, n2) ->
            let a1 = Model_a.max_rise (Cluster.solve stack n1) in
            let a2 = Model_a.max_rise (Cluster.solve stack n2) in
            let b1 = Model_b.max_rise (Model_b.solve_n ~cluster:n1 stack 100) in
            let b2 = Model_b.max_rise (Model_b.solve_n ~cluster:n2 stack 100) in
            Alcotest.(check bool) "same ordering" true ((a1 > a2) = (b1 > b2)))
          [ (1, 4); (4, 9); (9, 16) ]);
    test "package junction commutes with the model rise" (fun () ->
        let stack = Params.block () in
        let rise = Model_a.max_rise (Model_a.solve stack) in
        let total_power = Stack.total_heat stack in
        let pkg = Package.make ~ambient:25. ~resistance:2. () in
        let tj = Package.junction_temperature pkg ~total_power ~model_rise:rise in
        close_rel "additive" (25. +. (2. *. total_power) +. rise) tj);
    test "exported CSV of a computed figure parses back to the same numbers" (fun () ->
        let fig =
          Report.figure ~title:"t" ~x_label:"x" ~x_unit:"u" ~xs:[| 1.; 2.; 3. |]
            [
              {
                Report.label = "A";
                ys =
                  Array.map
                    (fun r ->
                      Model_a.max_rise (Model_a.solve (Params.fig4_stack (Units.um r))))
                    [| 1.; 2.; 3. |];
              };
            ]
        in
        let csv = Export.figure_to_string fig in
        let lines = List.tl (String.split_on_char '\n' (String.trim csv)) in
        List.iteri
          (fun i line ->
            match String.split_on_char ',' line with
            | [ _; v ] ->
              close_rel ~tol:1e-8 "roundtrip" (List.nth (List.map (fun s -> s.Report.ys) fig.Report.series) 0).(i)
                (float_of_string v)
            | _ -> Alcotest.fail "bad row")
          lines);
    test "the three models rank consistently on the paper block" (fun () ->
        (* on the default block the 1-D model overestimates while a fitted
           Model A and Model B straddle the FV truth *)
        let stack = Params.fig5_stack (Units.um 1.) in
        let fv = Solver.max_rise (Solver.solve (Problem.of_stack ~resolution:2 stack)) in
        let one_d = Model_1d.max_rise (Model_1d.solve stack) in
        let b = Model_b.max_rise (Model_b.solve_n stack 100) in
        Alcotest.(check bool) "1-D above FV" true (one_d > fv);
        Alcotest.(check bool) "B within 5% of FV" true (Float.abs (b -. fv) /. fv < 0.05));
    test "tsv heat share rises with radius" (fun () ->
        let share r_um =
          let stack = Params.block ~r:(Units.um r_um) () in
          let r = Model_a.solve stack in
          r.Model_a.tsv_heat /. Stack.total_heat stack
        in
        Alcotest.(check bool) "monotone" true (share 2. < share 5. && share 5. < share 10.);
        Alcotest.(check bool) "meaningful" true (share 10. > 0.3));
  ]

let suite = ("integration", integration_tests)

(* Filler-material study checks (appended: uses the same integration deps). *)
let filler_tests =
  let module Fillers = Ttsv_experiments.Fillers in
  [
    test "worse fillers run hotter in every solver" (fun () ->
        let table = Fillers.run ~resolution:1 () in
        let value row col =
          match List.nth table.Report.rows row with
          | _, cells -> float_of_string (List.nth cells col)
        in
        (* rows ordered copper, tungsten, poly-Si; columns A, B, FV *)
        for col = 0 to 2 do
          Alcotest.(check bool) "Cu < W" true (value 0 col < value 1 col);
          Alcotest.(check bool) "W < poly" true (value 1 col < value 2 col)
        done);
    test "equivalent radius ordering" (fun () ->
        let module Materials = Ttsv_physics.Materials in
        let r_cu = Fillers.equivalent_radius Materials.copper in
        let r_w = Fillers.equivalent_radius Materials.tungsten in
        close_rel "copper matches itself at 5 um" 5e-6 r_cu;
        Alcotest.(check bool) "tungsten needs more metal" true (r_w > 5e-6 && r_w < 2e-5));
  ]

let suite =
  let name, tests = suite in
  (name, tests @ filler_tests)
