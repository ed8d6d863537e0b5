(* Tests for interpolation and the error-metric/statistics module. *)

module Interp = Ttsv_numerics.Interp
module Stats = Ttsv_numerics.Stats
open Helpers

let interp_tests =
  [
    test "eval at knots" (fun () ->
        let t = Interp.create ~xs:[| 0.; 1.; 2. |] ~ys:[| 10.; 20.; 40. |] in
        close "k0" 10. (Interp.eval t 0.);
        close "k1" 20. (Interp.eval t 1.);
        close "k2" 40. (Interp.eval t 2.));
    test "eval midpoint" (fun () ->
        let t = Interp.create ~xs:[| 0.; 2. |] ~ys:[| 0.; 10. |] in
        close "mid" 5. (Interp.eval t 1.));
    test "constant extrapolation" (fun () ->
        let t = Interp.create ~xs:[| 0.; 1. |] ~ys:[| 3.; 4. |] in
        close "below" 3. (Interp.eval t (-5.));
        close "above" 4. (Interp.eval t 5.));
    test "of_points sorts" (fun () ->
        let t = Interp.of_points [ (2., 20.); (0., 0.); (1., 10.) ] in
        close "sorted" 15. (Interp.eval t 1.5));
    test "duplicate abscissae rejected" (fun () ->
        check_raises_invalid "dup" (fun () -> ignore (Interp.of_points [ (1., 0.); (1., 2.) ])));
    test "non-increasing rejected" (fun () ->
        check_raises_invalid "order" (fun () ->
            ignore (Interp.create ~xs:[| 1.; 0. |] ~ys:[| 0.; 1. |])));
  ]

let stats_tests =
  [
    test "relative errors (the paper's metric)" (fun () ->
        let xs = [| 11.; 18. |] and r = [| 10.; 20. |] in
        close "max" 0.1 (Stats.max_rel_error xs r);
        close ~tol:1e-12 "mean" 0.1 (Stats.mean_rel_error xs r));
    test "rel error rejects zero reference" (fun () ->
        check_raises_invalid "zero ref" (fun () ->
            ignore (Stats.max_rel_error [| 1. |] [| 0. |])));
    test "variance and stddev" (fun () ->
        let v = [| 2.; 4.; 4.; 4.; 5.; 5.; 7.; 9. |] in
        close "var" 4. (Stats.variance v);
        close "std" 2. (Stats.stddev v));
    test "median odd and even" (fun () ->
        close "odd" 3. (Stats.median [| 5.; 3.; 1. |]);
        close "even" 2.5 (Stats.median [| 4.; 1.; 2.; 3. |]));
    test "percentile" (fun () ->
        let v = [| 1.; 2.; 3.; 4.; 5. |] in
        close "p0" 1. (Stats.percentile 0. v);
        close "p50" 3. (Stats.percentile 50. v);
        close "p100" 5. (Stats.percentile 100. v);
        close "p25" 2. (Stats.percentile 25. v));
  ]

let property_tests =
  [
    qtest ~count:50 "interp reproduces linear functions exactly"
      QCheck2.Gen.(triple (float_range (-2.) 2.) (float_range (-5.) 5.) (float_range 0.1 5.))
      (fun (slope, intercept, x) ->
        let xs = [| 0.; 1.; 3.; 6. |] in
        let ys = Array.map (fun xi -> (slope *. xi) +. intercept) xs in
        let t = Interp.create ~xs ~ys in
        Float.abs (Interp.eval t x -. ((slope *. x) +. intercept)) < 1e-9);
    qtest ~count:50 "variance is nonnegative" (gen_vec 9) (fun v -> Stats.variance v >= 0.);
    qtest ~count:50 "median within range" (gen_vec 9) (fun v ->
        let m = Stats.median v in
        m >= Ttsv_numerics.Vec.min_elt v && m <= Ttsv_numerics.Vec.max_elt v);
  ]

let suite = ("interp+stats", interp_tests @ stats_tests @ property_tests)
