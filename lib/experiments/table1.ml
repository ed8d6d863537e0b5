module Params = Ttsv_core.Params
module Model_a = Ttsv_core.Model_a
module Model_b = Ttsv_core.Model_b
module Model_1d = Ttsv_core.Model_1d
module Coefficients = Ttsv_core.Coefficients
module Stats = Ttsv_numerics.Stats
module Units = Ttsv_physics.Units

type row = { label : string; max_err : float; avg_err : float; time_ms : float option }

let run_body ?resolution () =
  let stacks = List.map (fun tl -> Params.fig5_stack (Units.um tl)) Figures.liners_um in
  let fv = Array.of_list (List.map (Reference.max_rise ?resolution) stacks) in
  let timed label f =
    let solve_all () = Array.of_list (List.map f stacks) in
    let m = Timing.measure solve_all in
    {
      label;
      max_err = Stats.max_rel_error m.Timing.result fv;
      avg_err = Stats.mean_rel_error m.Timing.result fv;
      time_ms = Some (m.Timing.min_ms /. float_of_int (List.length stacks));
    }
  in
  let b_rows =
    List.map
      (fun n ->
        timed (Printf.sprintf "B (%d)" n) (fun s -> Model_b.max_rise (Model_b.solve_n s n)))
      Figures.segment_counts
  in
  let coeffs = Reference.block_coefficients () in
  let a_fit = timed "A (fitted)" (fun s -> Model_a.max_rise (Model_a.solve ~coeffs s)) in
  let a_paper =
    timed "A (paper k)" (fun s ->
        Model_a.max_rise (Model_a.solve ~coeffs:Coefficients.paper_block s))
  in
  let one_d = timed "1-D" (fun s -> Model_1d.max_rise (Model_1d.solve s)) in
  b_rows @ [ a_fit; a_paper; one_d ]

let run ?resolution () =
  Ttsv_obs.Span.with_ ~name:"experiment.table1" (fun () -> run_body ?resolution ())

let to_table rows =
  {
    Report.title = "Table I - error and run time vs # of segments in Model B";
    columns = [ "Max. Error"; "Av. Error"; "Time [ms]" ];
    rows =
      List.map
        (fun r ->
          ( r.label,
            [
              Report.percent r.max_err;
              Report.percent r.avg_err;
              (match r.time_ms with Some ms -> Printf.sprintf "%.2f" ms | None -> "-");
            ] ))
        rows;
  }

let print ?resolution ppf () =
  Format.fprintf ppf "@[<v>";
  Report.print_table ppf (to_table (run ?resolution ()));
  Format.fprintf ppf "@]@."
