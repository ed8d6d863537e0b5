(* Tests for the experiment harness: reporting plumbing plus the headline
   scientific claims of each reproduced figure (run at FV resolution 1 to
   keep the suite fast). *)

module Report = Ttsv_experiments.Report
module Figures = Ttsv_experiments.Figures
module Table1 = Ttsv_experiments.Table1
module Case_study = Ttsv_experiments.Case_study
module Convergence = Ttsv_experiments.Convergence
module Reference = Ttsv_experiments.Reference
module Timing = Ttsv_experiments.Timing
open Helpers

let series label ys = { Report.label; ys }

let report_tests =
  [
    test "figure validates series lengths" (fun () ->
        check_raises_invalid "ragged" (fun () ->
            ignore
              (Report.figure ~title:"t" ~x_label:"x" ~x_unit:"u" ~xs:[| 1.; 2. |]
                 [ series "a" [| 1. |] ])));
    test "errors_vs computes the paper's metrics" (fun () ->
        let fig =
          Report.figure ~title:"t" ~x_label:"x" ~x_unit:"u" ~xs:[| 1.; 2. |]
            [ series "model" [| 11.; 18. |]; series "ref" [| 10.; 20. |] ]
        in
        match Report.errors_vs ~reference:"ref" fig with
        | [ { Report.model = "model"; max_rel; mean_rel } ] ->
          close ~tol:1e-12 "max" 0.1 max_rel;
          close ~tol:1e-12 "mean" 0.1 mean_rel
        | _ -> Alcotest.fail "unexpected rows");
    test "errors_vs missing reference raises Not_found" (fun () ->
        let fig =
          Report.figure ~title:"t" ~x_label:"x" ~x_unit:"u" ~xs:[| 1. |] [ series "a" [| 1. |] ]
        in
        match Report.errors_vs ~reference:"nope" fig with
        | exception Not_found -> ()
        | _ -> Alcotest.fail "expected Not_found");
    test "percent formatting" (fun () ->
        Alcotest.(check string) "4.2%" "4.2%" (Report.percent 0.042));
    test "print_table rejects ragged rows" (fun () ->
        let t = { Report.title = "x"; columns = [ "a"; "b" ]; rows = [ ("r", [ "1" ]) ] } in
        check_raises_invalid "ragged" (fun () ->
            Report.print_table (Format.make_formatter (fun _ _ _ -> ()) ignore) t));
    test "timing returns positive medians" (fun () ->
        let m = Timing.measure (fun () -> ignore (Array.make 1000 0.)) in
        Alcotest.(check bool) "nonnegative" true (m.Timing.min_ms >= 0.));
  ]

let get_series fig label =
  match List.find_opt (fun s -> String.equal s.Report.label label) fig.Report.series with
  | Some s -> s.Report.ys
  | None -> Alcotest.failf "missing series %s" label

let monotone_decreasing ys =
  let ok = ref true in
  Array.iteri (fun i y -> if i > 0 && y > ys.(i - 1) +. 1e-12 then ok := false) ys;
  !ok

(* The scientific claims.  Resolution 1 keeps each figure under a second. *)
let figure_tests =
  [
    test "fig4: dT decreases with radius within each regime" (fun () ->
        let fig = Figures.run ~resolution:1 Figures.fig4 in
        let split = 4 in
        (* indices 0..4 are the 5-um-substrate regime, 5.. the 45-um one *)
        List.iter
          (fun label ->
            let ys = get_series fig label in
            Alcotest.(check bool) (label ^ " thin") true
              (monotone_decreasing (Array.sub ys 0 (split + 1)));
            Alcotest.(check bool) (label ^ " thick") true
              (monotone_decreasing (Array.sub ys (split + 1) (Array.length ys - split - 1))))
          [ "Model A"; "Model B(100)"; "FV" ]);
    test "fig4: proposed models beat 1-D at high aspect ratio" (fun () ->
        let fig = Figures.run ~resolution:1 Figures.fig4 in
        let fv = get_series fig "FV" and b = get_series fig "Model B(100)" in
        let one_d = get_series fig "Model 1D" in
        let err m = Float.abs (m.(0) -. fv.(0)) /. fv.(0) in
        Alcotest.(check bool) "B beats 1D at r=1um" true (err b < err one_d));
    test "fig5: dT increases with liner thickness except for 1-D" (fun () ->
        let fig = Figures.run ~resolution:1 Figures.fig5 in
        List.iter
          (fun label ->
            let ys = get_series fig label in
            Alcotest.(check bool) (label ^ " increasing") true
              (monotone_decreasing (Array.map (fun y -> -.y) ys)))
          [ "Model A"; "Model B(100)"; "FV" ];
        let one_d = get_series fig "Model 1D" in
        let spread =
          (Ttsv_numerics.Vec.max_elt one_d -. Ttsv_numerics.Vec.min_elt one_d)
          /. Ttsv_numerics.Vec.mean one_d
        in
        Alcotest.(check bool) "1-D flat within 2%" true (spread < 0.02));
    test "fig5: Model B error shrinks with segments" (fun () ->
        let fig = Figures.run ~resolution:1 Figures.fig5 in
        let fv = get_series fig "FV" in
        let err label =
          Ttsv_numerics.Stats.mean_rel_error (get_series fig label) fv
        in
        Alcotest.(check bool) "B(1)>B(20)" true (err "Model B(1)" > err "Model B(20)");
        Alcotest.(check bool) "B(20)>B(100)" true (err "Model B(20)" > err "Model B(100)");
        Alcotest.(check bool) "B(100)>B(500)" true (err "Model B(100)" > err "Model B(500)"));
    test "fig6: non-monotonic for the models, monotonic for 1-D" (fun () ->
        let fig = Figures.run ~resolution:1 Figures.fig6 in
        List.iter
          (fun label ->
            let min_at = Figures.minimum_of fig label in
            Alcotest.(check bool)
              (Printf.sprintf "%s has an interior minimum (%g um)" label min_at)
              true
              (min_at > 5. && min_at < 80.))
          [ "Model A"; "Model B(100)"; "FV" ];
        let one_d = get_series fig "Model 1D" in
        Alcotest.(check bool) "1-D monotone increasing" true
          (monotone_decreasing (Array.map (fun y -> -.y) one_d)));
    test "fig7: division cools with saturation; 1-D is flat" (fun () ->
        let fig = Figures.run ~resolution:1 Figures.fig7 in
        List.iter
          (fun label ->
            Alcotest.(check bool) (label ^ " decreasing") true
              (monotone_decreasing (get_series fig label)))
          [ "Model A"; "Model B(100)"; "FV" ];
        let one_d = get_series fig "Model 1D" in
        Alcotest.(check bool) "1-D exactly flat" true
          (Array.for_all (fun y -> y = one_d.(0)) one_d));
    test "table1: errors fall and runtimes grow with segments" (fun () ->
        let rows = Table1.run ~resolution:1 () in
        let find label =
          match List.find_opt (fun r -> String.equal r.Table1.label label) rows with
          | Some r -> r
          | None -> Alcotest.failf "missing row %s" label
        in
        let b1 = find "B (1)" and b500 = find "B (500)" in
        Alcotest.(check bool) "error falls" true (b500.Table1.avg_err < b1.Table1.avg_err);
        (match (b1.Table1.time_ms, b500.Table1.time_ms) with
        | Some t1, Some t500 -> Alcotest.(check bool) "time grows" true (t500 > t1)
        | _ -> Alcotest.fail "missing timings"));
    test "case study: 1-D overestimates, models track the reference" (fun () ->
        let t = Case_study.run ~resolution:1 ~segments:200 () in
        let find label =
          match
            List.find_opt
              (fun e -> String.length e.Case_study.label >= String.length label
                        && String.sub e.Case_study.label 0 (String.length label) = label)
              t.Case_study.entries
          with
          | Some e -> e
          | None -> Alcotest.failf "missing entry %s" label
        in
        let fv = (find "FV").Case_study.max_rise in
        let a = (find "Model A").Case_study.max_rise in
        let one_d = (find "Model 1D").Case_study.max_rise in
        Alcotest.(check bool) "A within 15%" true (Float.abs (a -. fv) /. fv < 0.15);
        Alcotest.(check bool) "1-D overestimates by >40%" true (one_d > fv *. 1.4);
        Alcotest.(check int) "paper's via count" 177 t.Case_study.tsv_count);
    test "convergence: FV refinement is Cauchy" (fun () ->
        match Convergence.fv_mesh_convergence () with
        | (_, _, r1) :: (_, _, r2) :: (_, _, r3) :: _ ->
          Alcotest.(check bool) "increments shrink" true
            (Float.abs (r3 -. r2) < Float.abs (r2 -. r1))
        | _ -> Alcotest.fail "need at least three levels");
    test "block calibration lands in a plausible range" (fun () ->
        let c = Reference.block_coefficients () in
        Alcotest.(check bool) "k1" true
          (c.Ttsv_core.Coefficients.k1 > 0.5 && c.Ttsv_core.Coefficients.k1 < 3.);
        Alcotest.(check bool) "k2" true
          (c.Ttsv_core.Coefficients.k2 > 0.1 && c.Ttsv_core.Coefficients.k2 < 3.));
  ]

let suite = ("experiments", report_tests @ figure_tests)
