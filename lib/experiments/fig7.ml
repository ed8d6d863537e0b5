module Params = Ttsv_core.Params
module Model_a = Ttsv_core.Model_a
module Model_b = Ttsv_core.Model_b
module Model_1d = Ttsv_core.Model_1d
module Cluster = Ttsv_core.Cluster
module Stack = Ttsv_geometry.Stack
module Tsv = Ttsv_geometry.Tsv

let divisions = [ 1; 2; 4; 9; 16 ]

(* The 1/n-area axisymmetric unit cell around one of the n sub-vias. *)
let subcell stack n =
  let fn = float_of_int n in
  Stack.make
    ~sink_temperature:stack.Stack.sink_temperature
    ~footprint:(stack.Stack.footprint /. fn)
    ~planes:(Array.to_list stack.Stack.planes)
    ~tsv:(Tsv.divide stack.Stack.tsv n) ()

let run_body ?resolution ?pool ?checkpoint () =
  let coeffs = Reference.block_coefficients () in
  let stack = Params.fig7_stack () in
  let of_list name f = Sweep.floats ?pool ?checkpoint ~stage:("fig7." ^ name) f divisions in
  let model_a = of_list "model_a" (fun n -> Model_a.max_rise (Cluster.solve ~coeffs stack n)) in
  let model_b =
    of_list "model_b_100" (fun n -> Model_b.max_rise (Model_b.solve_n ~cluster:n stack 100))
  in
  let model_1d = of_list "model_1d" (fun _ -> Model_1d.max_rise (Model_1d.solve stack)) in
  let fv = of_list "fv" (fun n -> Reference.max_rise ?resolution (subcell stack n)) in
  Report.figure ~title:"Fig. 7 - Max dT [C] vs number of TTSVs" ~x_label:"n TTSVs" ~x_unit:"-"
    ~xs:(Array.of_list (List.map float_of_int divisions))
    [
      { Report.label = "Model A"; ys = model_a };
      { Report.label = "Model B(100)"; ys = model_b };
      { Report.label = "Model 1D"; ys = model_1d };
      { Report.label = "FV"; ys = fv };
    ]

let run ?resolution ?pool ?checkpoint () =
  Ttsv_obs.Span.with_ ~name:"experiment.fig7" (fun () -> run_body ?resolution ?pool ?checkpoint ())

let print ?resolution ?pool ?checkpoint ppf () =
  let fig = run ?resolution ?pool ?checkpoint () in
  Format.fprintf ppf "@[<v>";
  Report.print_figure ppf fig;
  Format.fprintf ppf "@,Error vs FV reference:@,";
  Report.print_errors ppf (Report.errors_vs ~reference:"FV" fig);
  Format.fprintf ppf "@]@.";
  Ascii_plot.print ppf fig
