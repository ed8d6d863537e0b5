(* Unit and property tests for Ttsv_numerics.Vec. *)

module Vec = Ttsv_numerics.Vec
open Helpers

let unit_tests =
  [
    test "create fills" (fun () ->
        let v = Vec.create 4 2.5 in
        Array.iter (fun x -> close "fill" 2.5 x) v);
    test "zeros" (fun () -> close "sum of zeros" 0. (Vec.sum (Vec.zeros 10)));
    test "init" (fun () ->
        let v = Vec.init 5 float_of_int in
        close "init sum" 10. (Vec.sum v));
    test "dot hand computed" (fun () ->
        close "dot" 32. (Vec.dot [| 1.; 2.; 3. |] [| 4.; 5.; 6. |]));
    test "dot dimension mismatch" (fun () ->
        check_raises_invalid "dot" (fun () -> Vec.dot [| 1. |] [| 1.; 2. |]));
    test "norm2 of 3-4-5" (fun () -> close "norm" 5. (Vec.norm2 [| 3.; 4. |]));
    test "norm_inf" (fun () -> close "ninf" 7. (Vec.norm_inf [| -7.; 3.; 2. |]));
    test "of_list to_list roundtrip" (fun () ->
        Alcotest.(check (list (float 0.))) "roundtrip" [ 1.; 2. ] (Vec.to_list (Vec.of_list [ 1.; 2. ])));
    test "add sub" (fun () ->
        let x = [| 1.; 2. |] and y = [| 10.; 20. |] in
        close "add" 11. (Vec.add x y).(0);
        close "sub" (-9.) (Vec.sub x y).(0));
    test "axpy in place" (fun () ->
        let y = [| 1.; 1. |] in
        Vec.axpy 2. [| 3.; 4. |] y;
        close "axpy0" 7. y.(0);
        close "axpy1" 9. y.(1));
    test "scale_in_place" (fun () ->
        let x = [| 2.; -4. |] in
        Vec.scale_in_place 0.5 x;
        close "s0" 1. x.(0);
        close "s1" (-2.) x.(1));
    test "map2" (fun () ->
        let v = Vec.map2 ( *. ) [| 2.; 3. |] [| 4.; 5. |] in
        close "map2" 8. v.(0);
        close "map2b" 15. v.(1));
    test "max min argmax" (fun () ->
        let v = [| 3.; -1.; 9.; 2. |] in
        close "max" 9. (Vec.max_elt v);
        close "min" (-1.) (Vec.min_elt v);
        Alcotest.(check int) "argmax" 2 (Vec.argmax v));
    test "max_elt empty raises" (fun () ->
        check_raises_invalid "max" (fun () -> Vec.max_elt [||]));
    test "mean" (fun () -> close "mean" 2. (Vec.mean [| 1.; 2.; 3. |]));
    test "linspace endpoints and spacing" (fun () ->
        let v = Vec.linspace 0. 1. 5 in
        close "first" 0. v.(0);
        close "last" 1. v.(4);
        close "step" 0.25 (v.(1) -. v.(0)));
    test "linspace needs 2 points" (fun () ->
        check_raises_invalid "linspace" (fun () -> Vec.linspace 0. 1. 1));
    test "approx_equal tolerances" (fun () ->
        Alcotest.(check bool) "close" true (Vec.approx_equal ~rtol:1e-3 [| 1.0001 |] [| 1. |]);
        Alcotest.(check bool) "far" false (Vec.approx_equal ~rtol:1e-6 [| 1.01 |] [| 1. |]));
  ]

(* --- the boxing-free scans against the Array combinators they replace ---- *)

let same_bits a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

(* values the scans must treat exactly as the combinators do: NaN of
   either sign, the infinities, both zeros, subnormals and the extremes *)
let gen_special =
  QCheck2.Gen.oneofl
    [
      Float.nan;
      -.Float.nan;
      Float.infinity;
      Float.neg_infinity;
      -0.;
      0.;
      5e-324;
      -.Float.min_float /. 3.;
      Float.max_float;
      -.Float.max_float;
    ]

let gen_any = QCheck2.Gen.(frequency [ (3, float_range (-1e3) 1e3); (1, gen_special) ])

(* a vector of length 0-9 or ~1,000 whose entries are ordinary floats
   with up to three special values dropped at random positions *)
let gen_sprinkled =
  let open QCheck2.Gen in
  let* n = oneof [ int_range 0 9; int_range 995 1005 ] in
  let* v = array_size (return n) (float_range (-1e6) 1e6) in
  let* hits = list_size (int_range 0 3) (pair nat gen_special) in
  if n > 0 then List.iter (fun (i, x) -> v.(i mod n) <- x) hits;
  return v

let pp_vec v = String.concat "; " (Array.to_list (Array.map (Printf.sprintf "%h") v))

let scan_tests =
  [
    qtest ~count:500 "all_finite is Array.for_all Float.is_finite"
      ~print:pp_vec gen_sprinkled (fun v ->
        Vec.all_finite v = Array.for_all Float.is_finite v);
    qtest ~count:500 "fold_max/fold_min are Array.fold_left Float.max/min, bit for bit"
      ~print:(fun (init, v) -> Printf.sprintf "%h | %s" init (pp_vec v))
      QCheck2.Gen.(pair gen_any (oneof [ array_size (int_range 0 9) gen_any; gen_sprinkled ]))
      (fun (init, v) ->
        same_bits (Vec.fold_max init v) (Array.fold_left Float.max init v)
        && same_bits (Vec.fold_min init v) (Array.fold_left Float.min init v));
    qtest ~count:300 "max_elt/min_elt are the folds from the first entry, bit for bit"
      ~print:pp_vec QCheck2.Gen.(array_size (int_range 1 9) gen_any) (fun v ->
        same_bits (Vec.max_elt v) (Array.fold_left Float.max v.(0) v)
        && same_bits (Vec.min_elt v) (Array.fold_left Float.min v.(0) v));
  ]

let property_tests =
  [
    qtest "dot is symmetric" QCheck2.Gen.(pair (gen_vec 8) (gen_vec 8)) (fun (x, y) ->
        Float.abs (Vec.dot x y -. Vec.dot y x) < 1e-9);
    qtest "cauchy-schwarz" QCheck2.Gen.(pair (gen_vec 8) (gen_vec 8)) (fun (x, y) ->
        Float.abs (Vec.dot x y) <= (Vec.norm2 x *. Vec.norm2 y) +. 1e-9);
    qtest "triangle inequality" QCheck2.Gen.(pair (gen_vec 8) (gen_vec 8)) (fun (x, y) ->
        Vec.norm2 (Vec.add x y) <= Vec.norm2 x +. Vec.norm2 y +. 1e-9);
    qtest "norm ordering ninf <= n2 <= n1" (gen_vec 10) (fun x ->
        let a = Vec.norm_inf x and b = Vec.norm2 x in
        let c = Array.fold_left (fun acc v -> acc +. Float.abs v) 0. x in
        a <= b +. 1e-9 && b <= c +. 1e-9);
    qtest "scale distributes over sum" (gen_vec 6) (fun x ->
        Float.abs (Vec.sum (Vec.scale 3. x) -. (3. *. Vec.sum x)) < 1e-8);
    qtest "sub self is zero" (gen_vec 6) (fun x ->
        Vec.norm_inf (Vec.sub x x) = 0.);
    qtest "mean bounded by extremes" (gen_vec 9) (fun x ->
        let m = Vec.mean x in
        Vec.min_elt x -. 1e-12 <= m && m <= Vec.max_elt x +. 1e-12);
  ]

let suite = ("vec", unit_tests @ scan_tests @ property_tests)
