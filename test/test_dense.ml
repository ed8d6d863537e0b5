(* Unit and property tests for Ttsv_numerics.Dense (LU, det, inverse). *)

module Dense = Ttsv_numerics.Dense
module Vec = Ttsv_numerics.Vec
open Helpers

let residual a x b = Vec.norm_inf (Vec.sub (Dense.mat_vec a x) b)

let unit_tests =
  [
    test "identity solve returns rhs" (fun () ->
        let a = Dense.identity 3 in
        let x = Dense.solve a [| 1.; 2.; 3. |] in
        close "x0" 1. x.(0);
        close "x2" 3. x.(2));
    test "hand-computed 2x2" (fun () ->
        (* 2x + y = 5; x + 3y = 10 -> x = 1, y = 3 *)
        let a = Dense.of_arrays [| [| 2.; 1. |]; [| 1.; 3. |] |] in
        let x = Dense.solve a [| 5.; 10. |] in
        close "x" 1. x.(0);
        close "y" 3. x.(1));
    test "solve needs pivoting" (fun () ->
        (* zero in the leading position forces a row swap *)
        let a = Dense.of_arrays [| [| 0.; 1. |]; [| 1.; 0. |] |] in
        let x = Dense.solve a [| 2.; 7. |] in
        close "x" 7. x.(0);
        close "y" 2. x.(1));
    test "singular raises" (fun () ->
        let a = Dense.of_arrays [| [| 1.; 2. |]; [| 2.; 4. |] |] in
        Alcotest.check_raises "singular" Dense.Singular (fun () ->
            ignore (Dense.solve a [| 1.; 1. |])));
    test "add_to accumulates" (fun () ->
        let m = Dense.create 2 2 in
        Dense.add_to m 0 0 1.5;
        Dense.add_to m 0 0 2.5;
        close "acc" 4. (Dense.get m 0 0));
    test "of_arrays rejects ragged" (fun () ->
        check_raises_invalid "ragged" (fun () ->
            Dense.of_arrays [| [| 1. |]; [| 1.; 2. |] |]));
    test "mat_vec dimension mismatch" (fun () ->
        check_raises_invalid "mat_vec" (fun () ->
            ignore (Dense.mat_vec (Dense.identity 2) [| 1. |])));
    test "is_symmetric" (fun () ->
        let s = Dense.of_arrays [| [| 1.; 2. |]; [| 2.; 5. |] |] in
        let ns = Dense.of_arrays [| [| 1.; 2. |]; [| 3.; 5. |] |] in
        Alcotest.(check bool) "sym" true (Dense.is_symmetric s);
        Alcotest.(check bool) "nonsym" false (Dense.is_symmetric ns));
  ]

let property_tests =
  [
    qtest ~count:50 "LU solve has small residual"
      QCheck2.Gen.(gen_diag_dominant 8 >>= fun a -> gen_vec 8 >|= fun b -> (a, b))
      (fun (a, b) -> residual a (Dense.solve a b) b < 1e-8);
  ]

let suite = ("dense", unit_tests @ property_tests)
