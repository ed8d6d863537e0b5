module Params = Ttsv_core.Params
module Model_a = Ttsv_core.Model_a
module Model_b = Ttsv_core.Model_b
module Cluster = Ttsv_core.Cluster
module Stack = Ttsv_geometry.Stack
module Tsv = Ttsv_geometry.Tsv
module Units = Ttsv_physics.Units
module Problem3 = Ttsv_fem.Problem3
module Solver3 = Ttsv_fem.Solver3

let solve3 ?(resolution = 1) ?via_centers stack =
  Solver3.max_rise (Solver3.solve (Problem3.of_stack ~resolution ?via_centers stack))

let cell_shape ?resolution () =
  let stack = Params.fig5_stack (Units.um 1.) in
  let cube = solve3 ?resolution stack in
  let cyl = Reference.max_rise stack in
  let coeffs = Reference.block_coefficients () in
  let a = Model_a.max_rise (Model_a.solve ~coeffs stack) in
  let b = Model_b.max_rise (Model_b.solve_n stack 100) in
  let row label v =
    (label, [ Printf.sprintf "%.3f" v; Report.percent (Float.abs (v -. cube) /. cube) ])
  in
  {
    Report.title = "Ablation - square 3-D cell vs equivalent cylinder (Fig. 5 midpoint)";
    columns = [ "Max dT [C]"; "vs 3-D" ];
    rows =
      [
        row "FV 3-D (square cell)" cube;
        row "FV axisym (cylinder)" cyl;
        row "Model A (fitted)" a;
        row "Model B(100)" b;
      ];
  }

let cluster_layout ?resolution () =
  let divisions = [ 1; 4; 9; 16 ] in
  let stack = Params.fig7_stack () in
  let coeffs = Reference.block_coefficients () in
  let of_list f = Array.of_list (List.map f divisions) in
  let eq22 = of_list (fun n -> Model_a.max_rise (Cluster.solve ~coeffs stack n)) in
  let subcell = of_list (fun n -> Reference.max_rise (Figures.subcell stack n)) in
  let true_cluster =
    of_list (fun n ->
        let divided = Stack.with_tsv stack (Tsv.divide stack.Stack.tsv n) in
        let centers = Problem3.grid_centers_for_cluster divided n in
        solve3 ?resolution ~via_centers:centers divided)
  in
  Report.figure
    ~title:"Ablation - Fig. 7 with the true cluster layout (3-D) vs approximations"
    ~x_label:"n TTSVs" ~x_unit:"-"
    ~xs:(Array.of_list (List.map float_of_int divisions))
    [
      { Report.label = "eq. 22 (Model A)"; ys = eq22 };
      { Report.label = "FV subcell approx"; ys = subcell };
      { Report.label = "FV 3-D true layout"; ys = true_cluster };
    ]

let print ?resolution ppf () =
  Format.fprintf ppf "@[<v>";
  Report.print_table ppf (cell_shape ?resolution ());
  let fig = cluster_layout ?resolution () in
  Report.print_figure ppf fig;
  Format.fprintf ppf "@,Error vs the 3-D true-layout reference:@,";
  Report.print_errors ppf (Report.errors_vs ~reference:"FV 3-D true layout" fig);
  Format.fprintf ppf "@]@."
