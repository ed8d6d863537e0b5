module Params = Ttsv_core.Params
module Model_a = Ttsv_core.Model_a
module Model_b = Ttsv_core.Model_b
module Model_1d = Ttsv_core.Model_1d

type entry = { label : string; max_rise : float; time_ms : float; paper_value : float option }

type t = { entries : entry list; tsv_count : int; cell_area : float }

let run_body ?resolution ?(segments = 1000) () =
  let stack, tsv_count = Params.case_study () in
  let coeffs = Reference.calibrate_for stack in
  let timed label paper_value f =
    let m = Timing.measure f in
    { label; max_rise = m.Timing.result; time_ms = m.Timing.min_ms; paper_value }
  in
  let a =
    timed "Model A (fitted)" (Some 12.8) (fun () ->
        Model_a.max_rise (Model_a.solve ~coeffs stack))
  in
  let b =
    timed
      (Printf.sprintf "Model B(%d)" segments)
      (Some 13.9)
      (fun () -> Model_b.max_rise (Model_b.solve_n stack segments))
  in
  let one_d = timed "Model 1D" (Some 20.) (fun () -> Model_1d.max_rise (Model_1d.solve stack)) in
  let fv =
    timed "FV reference" (Some 12.) (fun () -> Reference.max_rise ?resolution stack)
  in
  { entries = [ a; b; one_d; fv ]; tsv_count; cell_area = stack.Ttsv_geometry.Stack.footprint }

let run ?resolution ?segments () =
  Ttsv_obs.Span.with_ ~name:"experiment.case_study" (fun () ->
      run_body ?resolution ?segments ())

let print ?resolution ?segments ppf () =
  let t = run ?resolution ?segments () in
  Format.fprintf ppf "@[<v>";
  Report.heading ppf "Case study - 3-D DRAM-uP system (section IV-E)";
  Format.fprintf ppf "TTSVs at 0.5%% density: %d vias, unit cell %.4g mm^2@,@," t.tsv_count
    (t.cell_area *. 1e6);
  Report.print_table ppf
    {
      Report.title = "Max dT above heat sink";
      columns = [ "ours [C]"; "paper [C]"; "time [ms]" ];
      rows =
        List.map
          (fun e ->
            ( e.label,
              [
                Printf.sprintf "%.1f" e.max_rise;
                (match e.paper_value with Some v -> Printf.sprintf "%.1f" v | None -> "-");
                Printf.sprintf "%.2f" e.time_ms;
              ] ))
          t.entries;
    };
  Format.fprintf ppf "@]@."
