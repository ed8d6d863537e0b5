(* Tests for the variation study, the N-plane scaling experiment and the
   ASCII plot renderer. *)

module Variation = Ttsv_experiments.Variation
module Figures = Ttsv_experiments.Figures
module Ascii_plot = Ttsv_experiments.Ascii_plot
module Report = Ttsv_experiments.Report
module Model_a = Ttsv_core.Model_a
module Stack = Ttsv_geometry.Stack
open Helpers

let variation_tests =
  [
    test "deterministic for a fixed seed" (fun () ->
        let a = Variation.run ~samples:200 () in
        let b = Variation.run ~samples:200 () in
        close_rel "same mean" a.Variation.mean b.Variation.mean;
        close_rel "same worst" a.Variation.worst b.Variation.worst);
    test "order statistics are ordered" (fun () ->
        let s = Variation.run ~samples:500 () in
        Alcotest.(check bool) "p5<=p50" true (s.Variation.p5 <= s.Variation.p50);
        Alcotest.(check bool) "p50<=p95" true (s.Variation.p50 <= s.Variation.p95);
        Alcotest.(check bool) "p95<=p99" true (s.Variation.p95 <= s.Variation.p99);
        Alcotest.(check bool) "p99<=worst" true (s.Variation.p99 <= s.Variation.worst));
    test "mean is near the nominal design" (fun () ->
        let s = Variation.run ~samples:1000 () in
        let nominal =
          Model_a.max_rise
            (Model_a.solve ~coeffs:Ttsv_core.Params.block_coeffs
               (Ttsv_core.Params.fig5_stack (Ttsv_physics.Units.um 1.)))
        in
        close_rel ~tol:0.05 "centered" nominal s.Variation.mean);
    test "zero tolerances collapse the distribution" (fun () ->
        let tol =
          {
            Variation.radius_sigma = 0.;
            liner_sigma = 0.;
            substrate_sigma = 0.;
            conductivity_sigma = 0.;
          }
        in
        let s = Variation.run ~samples:50 ~tolerances:tol () in
        close ~tol:1e-9 "no spread" 0. s.Variation.stddev;
        close_rel "yield 1" 1. s.Variation.yield_at_budget);
    test "larger tolerances widen the distribution" (fun () ->
        let wide =
          {
            Variation.radius_sigma = 0.15;
            liner_sigma = 0.3;
            substrate_sigma = 0.15;
            conductivity_sigma = 0.15;
          }
        in
        let a = Variation.run ~samples:1000 () in
        let b = Variation.run ~samples:1000 ~tolerances:wide () in
        Alcotest.(check bool) "wider" true (b.Variation.stddev > a.Variation.stddev));
    test "budget controls yield" (fun () ->
        let tight = Variation.run ~samples:500 ~budget:1. () in
        let loose = Variation.run ~samples:500 ~budget:1000. () in
        close_rel "loose yield 1" 1. loose.Variation.yield_at_budget;
        Alcotest.(check bool) "tight yield 0" true (tight.Variation.yield_at_budget < 0.01));
  ]

let nplanes_tests =
  [
    test "stacks have the requested plane count" (fun () ->
        List.iter
          (fun n -> Alcotest.(check int) "planes" n (Stack.num_planes (Figures.stack_with_planes n)))
          Figures.plane_counts);
    test "superlinear growth with plane count (Model A)" (fun () ->
        let rise n =
          Model_a.max_rise
            (Model_a.solve ~coeffs:Ttsv_core.Params.block_coeffs (Figures.stack_with_planes n))
        in
        let r2 = rise 2 and r4 = rise 4 and r8 = rise 8 in
        Alcotest.(check bool) "monotone" true (r2 < r4 && r4 < r8);
        (* superlinear: doubling the planes more than doubles the rise *)
        Alcotest.(check bool) "superlinear 2->4" true (r4 > 2. *. r2);
        Alcotest.(check bool) "superlinear 4->8" true (r8 > 2. *. r4));
    test "validation" (fun () ->
        check_raises_invalid "planes" (fun () -> ignore (Figures.stack_with_planes 1)));
  ]

let sample_figure () =
  Report.figure ~title:"sample" ~x_label:"x" ~x_unit:"u" ~xs:[| 0.; 1.; 2. |]
    [
      { Report.label = "up"; ys = [| 0.; 1.; 2. |] };
      { Report.label = "down"; ys = [| 2.; 1.; 0. |] };
    ]

let plot_tests =
  [
    test "render contains title, legend and markers" (fun () ->
        let s = Ascii_plot.render (sample_figure ()) in
        let contains needle =
          let n = String.length s and m = String.length needle in
          let rec scan i = i + m <= n && (String.sub s i m = needle || scan (i + 1)) in
          scan 0
        in
        Alcotest.(check bool) "title" true (contains "sample");
        Alcotest.(check bool) "legend up" true (contains "* up");
        Alcotest.(check bool) "legend down" true (contains "o down");
        Alcotest.(check bool) "axis label" true (contains "(x [u])"));
    test "render has the requested height" (fun () ->
        let s = Ascii_plot.render ~width:40 ~height:10 (sample_figure ()) in
        let lines = List.length (String.split_on_char '\n' (String.trim s)) in
        (* title + 10 canvas rows + axis + labels + 2 legend entries *)
        Alcotest.(check int) "lines" 15 lines);
    test "constant series does not crash (degenerate range)" (fun () ->
        let fig =
          Report.figure ~title:"flat" ~x_label:"x" ~x_unit:"u" ~xs:[| 0.; 1. |]
            [ { Report.label = "c"; ys = [| 5.; 5. |] } ]
        in
        Alcotest.(check bool) "nonempty" true (String.length (Ascii_plot.render fig) > 0));
    test "canvas size validation" (fun () ->
        check_raises_invalid "too small" (fun () ->
            ignore (Ascii_plot.render ~width:5 ~height:3 (sample_figure ()))));
  ]

let suite = ("extensions", variation_tests @ nplanes_tests @ plot_tests)
