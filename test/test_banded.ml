(* Tests for the banded solver (Model A's, Model B's and the direct
   rung's workhorse), on flat arrays in its layout against a dense copy
   built here. *)

module Banded = Ttsv_numerics.Banded
module Dense = Ttsv_numerics.Dense
module Vec = Ttsv_numerics.Vec
open Helpers

(* diagonally dominant order-n band with half-bandwidth bw, flattened row
   by row, and a right-hand side *)
let gen_banded n bw =
  let open QCheck2.Gen in
  let w = (2 * bw) + 1 in
  let* offdiag = array_size (return (n * w)) (float_range (-1.) 1.) in
  let* b = gen_vec n in
  let a =
    Array.init (n * w) (fun k ->
        let i = k / w and d = (k mod w) - bw in
        if d = 0 then float_of_int ((2 * bw) + 2)
        else if i + d >= 0 && i + d < n then 0.3 *. offdiag.(k)
        else 0.)
  in
  return (n, bw, a, b)

let to_dense n bw a =
  Dense.init n n (fun i j ->
      if abs (i - j) <= bw then a.((i * ((2 * bw) + 1)) + j - i + bw) else 0.)

(* the solution, leaving the generated arrays as they were *)
let solve n bw a b =
  let x = Array.copy b in
  Banded.solve_in_place ~n ~bw (Array.copy a) x;
  x

let matches_dense (n, bw, a, b) =
  Vec.approx_equal ~rtol:1e-8 ~atol:1e-10 (solve n bw a b) (Dense.solve (to_dense n bw a) b)

let unit_tests =
  [
    test "diagonal solve" (fun () ->
        let x = [| 2.; 4.; 8. |] in
        Banded.solve_in_place ~n:3 ~bw:0 [| 2.; 4.; 8. |] x;
        Array.iter (fun xi -> close "xi" 1. xi) x);
    test "zero pivot raises Singular" (fun () ->
        Alcotest.check_raises "singular" Dense.Singular (fun () ->
            Banded.solve_in_place ~n:2 ~bw:0 [| 1.; 0. |] [| 1.; 1. |]));
    test "NaN pivot raises Singular" (fun () ->
        Alcotest.check_raises "singular" Dense.Singular (fun () ->
            Banded.solve_in_place ~n:2 ~bw:0 [| Float.nan; 1. |] [| 1.; 1. |]));
    test "short arrays raise Invalid_argument" (fun () ->
        (* order 3 at bw 1 needs 9 band entries and 3 right-hand sides *)
        check_raises_invalid "band" (fun () ->
            Banded.solve_in_place ~n:3 ~bw:1 (Array.make 8 1.) (Array.make 3 1.));
        check_raises_invalid "rhs" (fun () ->
            Banded.solve_in_place ~n:3 ~bw:1 (Array.make 9 1.) (Array.make 2 1.));
        check_raises_invalid "negative order" (fun () ->
            Banded.solve_in_place ~n:(-1) ~bw:1 [||] [||]));
  ]

let property_tests =
  [
    qtest ~count:50 "bw=2 solve matches dense LU" (gen_banded 12 2) matches_dense;
    qtest ~count:6 "n=400 solve matches dense LU at bw 1, 2 and 5"
      QCheck2.Gen.(oneofl [ 1; 2; 5 ] >>= gen_banded 400)
      matches_dense;
    qtest ~count:30 "bw=5 solve matches dense LU from n=10"
      QCheck2.Gen.(int_range 10 60 >>= fun n -> gen_banded n 5)
      matches_dense;
    qtest ~count:30 "solve_in_place on a longer scratch keeps the tails" (gen_banded 12 2)
      (fun (n, bw, a, b) ->
        let w = (2 * bw) + 1 in
        let a' = Array.append a (Array.make (3 * w) 7.) in
        let x = Array.append b [| 7.; 7. |] in
        Banded.solve_in_place ~n ~bw a' x;
        let tail v k = Array.sub v k (Array.length v - k) in
        Array.sub x 0 n = solve n bw a b
        && tail a' (n * w) = Array.make (3 * w) 7.
        && tail x n = [| 7.; 7. |]);
    qtest ~count:40 "bw=1 equals tridiagonal structure" (gen_banded 10 1) (fun (n, bw, a, b) ->
        let x = solve n bw a b in
        Vec.norm_inf (Vec.sub (Dense.mat_vec (to_dense n bw a) x) b) < 1e-8);
  ]

let suite = ("banded", unit_tests @ property_tests)
