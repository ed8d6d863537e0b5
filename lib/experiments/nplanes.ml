module Params = Ttsv_core.Params
module Model_a = Ttsv_core.Model_a
module Model_b = Ttsv_core.Model_b
module Model_1d = Ttsv_core.Model_1d
module Stack = Ttsv_geometry.Stack
module Plane = Ttsv_geometry.Plane
module Tsv = Ttsv_geometry.Tsv
module Units = Ttsv_physics.Units

let plane_counts = [ 2; 3; 4; 5; 6; 8 ]

let stack_with_planes n =
  if n < 2 then invalid_arg "Nplanes.stack_with_planes: need at least two planes";
  let tsv =
    Tsv.make ~radius:(Units.um 5.) ~liner_thickness:(Units.um 1.) ~extension:(Units.um 1.) ()
  in
  let plane ~first =
    Plane.make
      ~t_substrate:(Units.um (if first then 500. else 45.))
      ~t_ild:(Units.um 7.)
      ~t_bond:(Units.um (if first then 0. else 1.))
      ~t_device:(Units.um 1.)
      ~device_power_density:(Units.w_per_mm3 700.)
      ~ild_power_density:(Units.w_per_mm3 70.) ()
  in
  Stack.make
    ~footprint:(Units.um2 (100. *. 100.))
    ~planes:(plane ~first:true :: List.init (n - 1) (fun _ -> plane ~first:false))
    ~tsv ()

let run_body ?resolution ?pool ?checkpoint () =
  let coeffs = Reference.block_coefficients () in
  let stacks = List.map stack_with_planes plane_counts in
  let of_list name f = Sweep.floats ?pool ?checkpoint ~stage:("nplanes." ^ name) f stacks in
  let model_a = of_list "model_a" (fun s -> Model_a.max_rise (Model_a.solve ~coeffs s)) in
  let model_b = of_list "model_b_100" (fun s -> Model_b.max_rise (Model_b.solve_n s 100)) in
  let model_1d = of_list "model_1d" (fun s -> Model_1d.max_rise (Model_1d.solve s)) in
  let fv = of_list "fv" (Reference.max_rise ?resolution) in
  Report.figure ~title:"Extension - Max dT [C] vs number of planes" ~x_label:"planes"
    ~x_unit:"-"
    ~xs:(Array.of_list (List.map float_of_int plane_counts))
    [
      { Report.label = "Model A"; ys = model_a };
      { Report.label = "Model B(100)"; ys = model_b };
      { Report.label = "Model 1D"; ys = model_1d };
      { Report.label = "FV"; ys = fv };
    ]

let run ?resolution ?pool ?checkpoint () =
  Ttsv_obs.Span.with_ ~name:"experiment.nplanes" (fun () ->
      run_body ?resolution ?pool ?checkpoint ())

let print ?resolution ?pool ?checkpoint ppf () =
  let fig = run ?resolution ?pool ?checkpoint () in
  Format.fprintf ppf "@[<v>";
  Report.print_figure ppf fig;
  Format.fprintf ppf "@,Error vs FV reference:@,";
  Report.print_errors ppf (Report.errors_vs ~reference:"FV" fig);
  Format.fprintf ppf "@]@.";
  Ascii_plot.print ppf fig
