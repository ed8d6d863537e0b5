module Params = Ttsv_core.Params
module Model_a = Ttsv_core.Model_a
module Model_b = Ttsv_core.Model_b
module Model_1d = Ttsv_core.Model_1d
module Units = Ttsv_physics.Units

let thicknesses_um = [ 5.; 10.; 15.; 20.; 25.; 30.; 40.; 50.; 60.; 70.; 80. ]

let run_body ?resolution ?pool ?checkpoint () =
  let coeffs = Reference.block_coefficients () in
  let stacks = List.map (fun t -> Params.fig6_stack (Units.um t)) thicknesses_um in
  let of_list name f = Sweep.floats ?pool ?checkpoint ~stage:("fig6." ^ name) f stacks in
  let model_a = of_list "model_a" (fun s -> Model_a.max_rise (Model_a.solve ~coeffs s)) in
  let model_b = of_list "model_b_100" (fun s -> Model_b.max_rise (Model_b.solve_n s 100)) in
  let model_1d = of_list "model_1d" (fun s -> Model_1d.max_rise (Model_1d.solve s)) in
  let fv = of_list "fv" (Reference.max_rise ?resolution) in
  Report.figure ~title:"Fig. 6 - Max dT [C] vs substrate thickness" ~x_label:"t_Si2,3"
    ~x_unit:"um" ~xs:(Array.of_list thicknesses_um)
    [
      { Report.label = "Model A"; ys = model_a };
      { Report.label = "Model B(100)"; ys = model_b };
      { Report.label = "Model 1D"; ys = model_1d };
      { Report.label = "FV"; ys = fv };
    ]

let run ?resolution ?pool ?checkpoint () =
  Ttsv_obs.Span.with_ ~name:"experiment.fig6" (fun () -> run_body ?resolution ?pool ?checkpoint ())

let minimum_of fig label =
  match List.find_opt (fun s -> String.equal s.Report.label label) fig.Report.series with
  | None -> invalid_arg ("Fig6.minimum_of: no series " ^ label)
  | Some s ->
    let best = ref 0 in
    Array.iteri (fun i y -> if y < s.Report.ys.(!best) then best := i) s.Report.ys;
    fig.Report.xs.(!best)

let print ?resolution ?pool ?checkpoint ppf () =
  let fig = run ?resolution ?pool ?checkpoint () in
  Format.fprintf ppf "@[<v>";
  Report.print_figure ppf fig;
  Format.fprintf ppf "@,Error vs FV reference:@,";
  Report.print_errors ppf (Report.errors_vs ~reference:"FV" fig);
  Format.fprintf ppf "@,dT minimum: FV at %g um, Model A at %g um, Model B at %g um@]@."
    (minimum_of fig "FV") (minimum_of fig "Model A") (minimum_of fig "Model B(100)");
  Ascii_plot.print ppf fig
