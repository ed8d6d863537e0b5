(* Tests for the banded solver (Model B's workhorse). *)

module Banded = Ttsv_numerics.Banded
module Dense = Ttsv_numerics.Dense
module Vec = Ttsv_numerics.Vec
open Helpers

(* diagonally dominant banded matrix with half-bandwidth bw *)
let gen_banded n bw =
  let open QCheck2.Gen in
  let* offdiag = array_size (return (n * ((2 * bw) + 1))) (float_range (-1.) 1.) in
  let* b = gen_vec n in
  let m = Banded.create ~n ~bw in
  for i = 0 to n - 1 do
    for j = Stdlib.max 0 (i - bw) to Stdlib.min (n - 1) (i + bw) do
      if i <> j then Banded.set m i j (0.3 *. offdiag.((i * ((2 * bw) + 1)) + (j - i + bw)))
    done
  done;
  for i = 0 to n - 1 do
    Banded.set m i i (float_of_int ((2 * bw) + 2))
  done;
  return (m, b)

let unit_tests =
  [
    test "get outside band is zero" (fun () ->
        let m = Banded.create ~n:5 ~bw:1 in
        close "far" 0. (Banded.get m 0 4));
    test "set outside band raises" (fun () ->
        let m = Banded.create ~n:5 ~bw:1 in
        check_raises_invalid "outside" (fun () -> Banded.set m 0 3 1.));
    test "add_to accumulates" (fun () ->
        let m = Banded.create ~n:3 ~bw:1 in
        Banded.add_to m 1 2 2.;
        Banded.add_to m 1 2 3.;
        close "acc" 5. (Banded.get m 1 2));
    test "diagonal solve" (fun () ->
        let m = Banded.create ~n:3 ~bw:0 in
        Banded.set m 0 0 2.;
        Banded.set m 1 1 4.;
        Banded.set m 2 2 8.;
        let x = Banded.solve m [| 2.; 4.; 8. |] in
        Array.iter (fun xi -> close "xi" 1. xi) x);
    test "of_dense rejects out-of-band nonzeros" (fun () ->
        let d = Dense.of_arrays [| [| 1.; 0.; 5. |]; [| 0.; 1.; 0. |]; [| 0.; 0.; 1. |] |] in
        check_raises_invalid "off-band" (fun () -> ignore (Banded.of_dense ~bw:1 d)));
    test "zero pivot raises Singular" (fun () ->
        let m = Banded.create ~n:2 ~bw:0 in
        Banded.set m 0 0 1.;
        Alcotest.check_raises "singular" Dense.Singular (fun () ->
            ignore (Banded.solve m [| 1.; 1. |])));
    test "NaN pivot raises Singular" (fun () ->
        let m = Banded.create ~n:2 ~bw:0 in
        Banded.set m 0 0 Float.nan;
        Banded.set m 1 1 1.;
        Alcotest.check_raises "singular" Dense.Singular (fun () ->
            ignore (Banded.solve m [| 1.; 1. |])));
    test "order and bandwidth accessors" (fun () ->
        let m = Banded.create ~n:7 ~bw:2 in
        Alcotest.(check int) "order" 7 (Banded.order m);
        Alcotest.(check int) "bw" 2 (Banded.bandwidth m));
  ]

let property_tests =
  [
    qtest ~count:50 "bw=2 solve matches dense LU" (gen_banded 12 2) (fun (m, b) ->
        let x1 = Banded.solve m b in
        let x2 = Dense.solve (Banded.to_dense m) b in
        Vec.approx_equal ~rtol:1e-8 ~atol:1e-10 x1 x2);
    qtest ~count:4 "n=400 solve matches dense LU and keeps its inputs"
      QCheck2.Gen.(oneofl [ 2; 5 ] >>= gen_banded 400)
      (fun (m, b) ->
        let band = Array.copy m.Banded.band and rhs = Array.copy b in
        let x = Banded.solve m b in
        m.Banded.band = band && b = rhs
        && Vec.approx_equal ~rtol:1e-8 ~atol:1e-10 x (Dense.solve (Banded.to_dense m) b));
    qtest ~count:30 "solve_in_place on a longer scratch equals solve and keeps the tails"
      (gen_banded 12 2)
      (fun (m, b) ->
        let n = Banded.order m and w = 5 in
        let a = Array.append m.Banded.band (Array.make (3 * w) 7.) in
        let x = Array.append b [| 7.; 7. |] in
        Banded.solve_in_place ~n ~bw:2 a x;
        let tail v k = Array.sub v k (Array.length v - k) in
        Array.sub x 0 n = Banded.solve m b
        && tail a (n * w) = Array.make (3 * w) 7.
        && tail x n = [| 7.; 7. |]);
    qtest ~count:40 "bw=1 equals tridiagonal structure" (gen_banded 10 1) (fun (m, b) ->
        let x = Banded.solve m b in
        Vec.norm_inf (Vec.sub (Banded.mat_vec m x) b) < 1e-8);
    qtest ~count:30 "mat_vec matches dense" (gen_banded 9 2) (fun (m, b) ->
        Vec.approx_equal ~rtol:1e-10 ~atol:1e-12 (Banded.mat_vec m b)
          (Dense.mat_vec (Banded.to_dense m) b));
    qtest ~count:30 "of_dense/to_dense roundtrip" (gen_banded 8 2) (fun (m, _) ->
        let d = Banded.to_dense m in
        Dense.approx_equal (Banded.to_dense (Banded.of_dense ~bw:2 d)) d);
  ]

let suite = ("banded", unit_tests @ property_tests)
