module Params = Ttsv_core.Params
module Model_a = Ttsv_core.Model_a
module Cluster = Ttsv_core.Cluster
module Coefficients = Ttsv_core.Coefficients
module Units = Ttsv_physics.Units

let coefficients ?resolution () =
  let stacks = List.map (fun tl -> Params.fig5_stack (Units.um tl)) Figures.liners_um in
  let of_list f = Array.of_list (List.map f stacks) in
  let with_coeffs coeffs = of_list (fun s -> Model_a.max_rise (Model_a.solve ~coeffs s)) in
  let fv = of_list (Reference.max_rise ?resolution) in
  Report.figure ~title:"Ablation - Model A fitting coefficients (Fig. 5 sweep)" ~x_label:"t_L"
    ~x_unit:"um"
    ~xs:(Array.of_list Figures.liners_um)
    [
      { Report.label = "A (fitted)"; ys = with_coeffs (Reference.block_coefficients ()) };
      { Report.label = "A (paper k)"; ys = with_coeffs Coefficients.paper_block };
      { Report.label = "A (k1=k2=1)"; ys = with_coeffs Coefficients.unity };
      { Report.label = "FV"; ys = fv };
    ]

let cluster () =
  let stack = Params.fig7_stack () in
  let coeffs = Reference.block_coefficients () in
  let of_list f = Array.of_list (List.map f Figures.divisions) in
  Report.figure ~title:"Ablation - eq. 22 cluster model vs first-principles recomputation"
    ~x_label:"n TTSVs" ~x_unit:"-"
    ~xs:(Array.of_list (List.map float_of_int Figures.divisions))
    [
      {
        Report.label = "eq. 22";
        ys = of_list (fun n -> Model_a.max_rise (Cluster.solve ~coeffs stack n));
      };
      {
        Report.label = "first-principles";
        ys = of_list (fun n -> Model_a.max_rise (Cluster.solve_naive ~coeffs stack n));
      };
    ]

let print ?resolution ppf () =
  let fig = coefficients ?resolution () in
  Format.fprintf ppf "@[<v>";
  Report.print_figure ppf fig;
  Format.fprintf ppf "@,Error vs FV reference:@,";
  Report.print_errors ppf (Report.errors_vs ~reference:"FV" fig);
  Report.print_figure ppf (cluster ());
  Format.fprintf ppf "@]@."
