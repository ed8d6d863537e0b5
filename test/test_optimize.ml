(* Tests for Nelder-Mead, golden-section and Brent root finding. *)

module Optimize = Ttsv_numerics.Optimize
open Helpers

let unit_tests =
  [
    test "nelder_mead on shifted quadratic" (fun () ->
        let f x = ((x.(0) -. 3.) ** 2.) +. ((x.(1) +. 1.) ** 2.) in
        let m = Optimize.nelder_mead f [| 0.; 0. |] in
        Alcotest.(check bool) "converged" true m.Optimize.converged;
        close ~tol:1e-4 "x" 3. m.Optimize.xmin.(0);
        close ~tol:1e-4 "y" (-1.) m.Optimize.xmin.(1));
    test "nelder_mead on rosenbrock" (fun () ->
        let f x =
          ((1. -. x.(0)) ** 2.) +. (100. *. ((x.(1) -. (x.(0) ** 2.)) ** 2.))
        in
        let m = Optimize.nelder_mead ~max_iter:5000 ~tol:1e-14 f [| -1.2; 1. |] in
        close ~tol:1e-3 "x" 1. m.Optimize.xmin.(0);
        close ~tol:1e-3 "y" 1. m.Optimize.xmin.(1));
    test "nelder_mead 1-d" (fun () ->
        let f x = ((x.(0) -. 7.) ** 2.) +. 3. in
        let m = Optimize.nelder_mead ~max_iter:500 f [| 0. |] in
        close ~tol:1e-4 "x" 7. m.Optimize.xmin.(0);
        close ~tol:1e-6 "f" 3. m.Optimize.fmin);
    test "nelder_mead empty start raises" (fun () ->
        check_raises_invalid "empty" (fun () -> ignore (Optimize.nelder_mead (fun _ -> 0.) [||])));
    test "bisect on line" (fun () ->
        close ~tol:1e-9 "root" 4. (Optimize.bisect (fun x -> x -. 4.) 0. 10.));
    test "bisect requires a bracket" (fun () ->
        check_raises_invalid "bracket" (fun () ->
            ignore (Optimize.bisect (fun _ -> 1.) 0. 1.)));
  ]

let property_tests =
  [
    qtest ~count:50 "nelder_mead finds random quadratic minima"
      QCheck2.Gen.(pair (float_range (-5.) 5.) (float_range (-5.) 5.))
      (fun (a, b) ->
        let f x = ((x.(0) -. a) ** 2.) +. (2. *. ((x.(1) -. b) ** 2.)) in
        let m = Optimize.nelder_mead ~max_iter:3000 ~tol:1e-14 f [| 0.; 0. |] in
        Float.abs (m.Optimize.xmin.(0) -. a) < 1e-3 && Float.abs (m.Optimize.xmin.(1) -. b) < 1e-3);
  ]

let suite = ("optimize", unit_tests @ property_tests)
