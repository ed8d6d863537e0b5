module Params = Ttsv_core.Params
module Model_a = Ttsv_core.Model_a
module Model_b = Ttsv_core.Model_b
module Model_1d = Ttsv_core.Model_1d
module Units = Ttsv_physics.Units

let radii_um = [ 1.; 2.; 3.; 4.; 5.; 6.; 8.; 10.; 12.; 14.; 16.; 18.; 20. ]

let run_body ?resolution ?pool ?checkpoint () =
  let coeffs = Reference.block_coefficients () in
  let stacks = List.map (fun r -> Params.fig4_stack (Units.um r)) radii_um in
  let of_list name f = Sweep.floats ?pool ?checkpoint ~stage:("fig4." ^ name) f stacks in
  let model_a = of_list "model_a" (fun s -> Model_a.max_rise (Model_a.solve ~coeffs s)) in
  let model_b = of_list "model_b_100" (fun s -> Model_b.max_rise (Model_b.solve_n s 100)) in
  let model_1d = of_list "model_1d" (fun s -> Model_1d.max_rise (Model_1d.solve s)) in
  let fv = of_list "fv" (Reference.max_rise ?resolution) in
  Report.figure ~title:"Fig. 4 - Max dT [C] vs TTSV radius" ~x_label:"radius" ~x_unit:"um"
    ~xs:(Array.of_list radii_um)
    [
      { Report.label = "Model A"; ys = model_a };
      { Report.label = "Model B(100)"; ys = model_b };
      { Report.label = "Model 1D"; ys = model_1d };
      { Report.label = "FV"; ys = fv };
    ]

let run ?resolution ?pool ?checkpoint () =
  Ttsv_obs.Span.with_ ~name:"experiment.fig4" (fun () -> run_body ?resolution ?pool ?checkpoint ())

let print ?resolution ?pool ?checkpoint ppf () =
  let fig = run ?resolution ?pool ?checkpoint () in
  Format.fprintf ppf "@[<v>";
  Report.print_figure ppf fig;
  Format.fprintf ppf "@,Error vs FV reference:@,";
  Report.print_errors ppf (Report.errors_vs ~reference:"FV" fig);
  Format.fprintf ppf "@]@.";
  Ascii_plot.print ppf fig
