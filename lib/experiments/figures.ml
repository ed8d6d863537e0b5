module Params = Ttsv_core.Params
module Model_a = Ttsv_core.Model_a
module Model_b = Ttsv_core.Model_b
module Model_1d = Ttsv_core.Model_1d
module Cluster = Ttsv_core.Cluster
module Coefficients = Ttsv_core.Coefficients
module Stack = Ttsv_geometry.Stack
module Tsv = Ttsv_geometry.Tsv
module Units = Ttsv_physics.Units

type curve = { label : string; stage : string; y : float -> float }

type t = {
  name : string;
  title : string;
  x_label : string;
  x_unit : string;
  xs : float list;
  curves : ?resolution:int -> Coefficients.t -> curve list;
  remark : (Report.figure -> string) option;
}

let name fig = fig.name

(* Model A, Model B at each segment count, the 1-D model and the FV
   reference, each evaluated on [stack_of x] at every sweep point [x] *)
let model_curves ?(segments = [ 100 ]) stack_of ?resolution coeffs =
  let curve label stage f = { label; stage; y = (fun x -> f (stack_of x)) } in
  let model_b n =
    curve (Printf.sprintf "Model B(%d)" n) (Printf.sprintf "model_b_%d" n) (fun s ->
        Model_b.max_rise (Model_b.solve_n s n))
  in
  (curve "Model A" "model_a" (fun s -> Model_a.max_rise (Model_a.solve ~coeffs s))
   :: List.map model_b segments)
  @ [
      curve "Model 1D" "model_1d" (fun s -> Model_1d.max_rise (Model_1d.solve s));
      curve "FV" "fv" (Reference.max_rise ?resolution);
    ]

let fig4 =
  {
    name = "fig4";
    title = "Fig. 4 - Max dT [C] vs TTSV radius";
    x_label = "radius";
    x_unit = "um";
    xs = [ 1.; 2.; 3.; 4.; 5.; 6.; 8.; 10.; 12.; 14.; 16.; 18.; 20. ];
    curves = model_curves (fun r -> Params.fig4_stack (Units.um r));
    remark = None;
  }

let liners_um = [ 0.5; 1.; 1.5; 2.; 2.5; 3. ]
let segment_counts = [ 1; 20; 100; 500 ]

let fig5 =
  {
    name = "fig5";
    title = "Fig. 5 - Max dT [C] vs liner thickness";
    x_label = "t_L";
    x_unit = "um";
    xs = liners_um;
    curves = model_curves ~segments:segment_counts (fun tl -> Params.fig5_stack (Units.um tl));
    remark = None;
  }

let minimum_of fig label =
  match List.find_opt (fun s -> String.equal s.Report.label label) fig.Report.series with
  | None -> invalid_arg ("Figures.minimum_of: no series " ^ label)
  | Some s ->
    let best = ref 0 in
    Array.iteri (fun i y -> if y < s.Report.ys.(!best) then best := i) s.Report.ys;
    fig.Report.xs.(!best)

let fig6 =
  {
    name = "fig6";
    title = "Fig. 6 - Max dT [C] vs substrate thickness";
    x_label = "t_Si2,3";
    x_unit = "um";
    xs = [ 5.; 10.; 15.; 20.; 25.; 30.; 40.; 50.; 60.; 70.; 80. ];
    curves = model_curves (fun t -> Params.fig6_stack (Units.um t));
    remark =
      Some
        (fun fig ->
          Printf.sprintf "dT minimum: FV at %g um, Model A at %g um, Model B at %g um"
            (minimum_of fig "FV") (minimum_of fig "Model A") (minimum_of fig "Model B(100)"));
  }

let divisions = [ 1; 2; 4; 9; 16 ]

let subcell stack n =
  let fn = float_of_int n in
  Stack.make ~sink_temperature:stack.Stack.sink_temperature
    ~footprint:(stack.Stack.footprint /. fn)
    ~planes:(Array.to_list stack.Stack.planes)
    ~tsv:(Tsv.divide stack.Stack.tsv n) ()

let fig7 =
  let curves ?resolution coeffs =
    let stack = Params.fig7_stack () in
    let curve label stage f = { label; stage; y = (fun x -> f (int_of_float x)) } in
    [
      curve "Model A" "model_a" (fun n -> Model_a.max_rise (Cluster.solve ~coeffs stack n));
      curve "Model B(100)" "model_b_100" (fun n ->
          Model_b.max_rise (Model_b.solve_n ~cluster:n stack 100));
      curve "Model 1D" "model_1d" (fun _ -> Model_1d.max_rise (Model_1d.solve stack));
      curve "FV" "fv" (fun n -> Reference.max_rise ?resolution (subcell stack n));
    ]
  in
  {
    name = "fig7";
    title = "Fig. 7 - Max dT [C] vs number of TTSVs";
    x_label = "n TTSVs";
    x_unit = "-";
    xs = List.map float_of_int divisions;
    curves;
    remark = None;
  }

let plane_counts = [ 2; 3; 4; 5; 6; 8 ]

let stack_with_planes n =
  if n < 2 then invalid_arg "Figures.stack_with_planes: need at least two planes";
  let s = Params.fig5_stack (Units.um 1.) in
  Stack.make ~footprint:s.Stack.footprint ~tsv:s.Stack.tsv
    ~planes:(s.Stack.planes.(0) :: List.init (n - 1) (fun _ -> s.Stack.planes.(1)))
    ()

let nplanes =
  {
    name = "nplanes";
    title = "Extension - Max dT [C] vs number of planes";
    x_label = "planes";
    x_unit = "-";
    xs = List.map float_of_int plane_counts;
    curves = model_curves (fun n -> stack_with_planes (int_of_float n));
    remark = None;
  }

let all = [ fig4; fig5; fig6; fig7; nplanes ]

let run ?resolution ?pool ?checkpoint fig =
  Ttsv_obs.Span.with_ ~name:("experiment." ^ fig.name) @@ fun () ->
  let coeffs = Reference.block_coefficients () in
  (* each curve is one checkpoint stage, so a killed figure resumes
     mid-curve: only the points with no record are re-solved *)
  let sweep c =
    let checkpoint =
      Option.map (fun cp -> Sweep.float_stage cp (fig.name ^ "." ^ c.stage)) checkpoint
    in
    { Report.label = c.label; ys = Sweep.map ?pool ?checkpoint c.y fig.xs }
  in
  Report.figure ~title:fig.title ~x_label:fig.x_label ~x_unit:fig.x_unit
    ~xs:(Array.of_list fig.xs)
    (List.map sweep (fig.curves ?resolution coeffs))

let print ?resolution ?pool ?checkpoint ppf fig =
  let r = run ?resolution ?pool ?checkpoint fig in
  Format.fprintf ppf "@[<v>";
  Report.print_figure ppf r;
  Format.fprintf ppf "@,Error vs FV reference:@,";
  Report.print_errors ppf (Report.errors_vs ~reference:"FV" r);
  Option.iter (fun remark -> Format.fprintf ppf "@,%s" (remark r)) fig.remark;
  Format.fprintf ppf "@]@.";
  Ascii_plot.print ppf r
