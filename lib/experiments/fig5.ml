module Params = Ttsv_core.Params
module Model_a = Ttsv_core.Model_a
module Model_b = Ttsv_core.Model_b
module Model_1d = Ttsv_core.Model_1d
module Units = Ttsv_physics.Units

let liners_um = [ 0.5; 1.; 1.5; 2.; 2.5; 3. ]
let segment_counts = [ 1; 20; 100; 500 ]

let run_body ?resolution ?pool ?checkpoint () =
  let coeffs = Reference.block_coefficients () in
  let stacks = List.map (fun tl -> Params.fig5_stack (Units.um tl)) liners_um in
  (* each curve is one checkpoint stage, so a killed figure resumes
     mid-curve: only the points with no record are re-solved *)
  let of_list name f = Sweep.floats ?pool ?checkpoint ~stage:("fig5." ^ name) f stacks in
  let model_a = of_list "model_a" (fun s -> Model_a.max_rise (Model_a.solve ~coeffs s)) in
  let model_bs =
    List.map
      (fun n ->
        {
          Report.label = Printf.sprintf "Model B(%d)" n;
          ys =
            of_list
              (Printf.sprintf "model_b_%d" n)
              (fun s -> Model_b.max_rise (Model_b.solve_n s n));
        })
      segment_counts
  in
  let model_1d = of_list "model_1d" (fun s -> Model_1d.max_rise (Model_1d.solve s)) in
  let fv = of_list "fv" (Reference.max_rise ?resolution) in
  Report.figure ~title:"Fig. 5 - Max dT [C] vs liner thickness" ~x_label:"t_L" ~x_unit:"um"
    ~xs:(Array.of_list liners_um)
    ([ { Report.label = "Model A"; ys = model_a } ]
    @ model_bs
    @ [ { Report.label = "Model 1D"; ys = model_1d }; { Report.label = "FV"; ys = fv } ])

let run ?resolution ?pool ?checkpoint () =
  Ttsv_obs.Span.with_ ~name:"experiment.fig5" (fun () -> run_body ?resolution ?pool ?checkpoint ())

let print ?resolution ?pool ?checkpoint ppf () =
  let fig = run ?resolution ?pool ?checkpoint () in
  Format.fprintf ppf "@[<v>";
  Report.print_figure ppf fig;
  Format.fprintf ppf "@,Error vs FV reference:@,";
  Report.print_errors ppf (Report.errors_vs ~reference:"FV" fig);
  Format.fprintf ppf "@]@.";
  Ascii_plot.print ppf fig
