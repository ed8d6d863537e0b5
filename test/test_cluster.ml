(* Tests for the eq. 22 cluster-division model. *)

module Params = Ttsv_core.Params
module Model_a = Ttsv_core.Model_a
module Cluster = Ttsv_core.Cluster
module Resistances = Ttsv_core.Resistances
module Coefficients = Ttsv_core.Coefficients
open Helpers

let unit_tests =
  [
    test "n=1 returns the plain resistances" (fun () ->
        let s = Params.fig7_stack () in
        let base = Resistances.of_stack s in
        let div1 = Cluster.divided_resistances s 1 in
        Array.iteri
          (fun i (t : Resistances.triple) ->
            let b = base.Resistances.triples.(i) in
            close_rel "liner" b.Resistances.liner t.Resistances.liner;
            close_rel "tsv" b.Resistances.tsv t.Resistances.tsv)
          div1.Resistances.triples);
    test "eq. 22 hand computed for plane 1" (fun () ->
        let s = Params.fig7_stack () in
        let n = 4 in
        let rs = Cluster.divided_resistances s n in
        (* r0=10um, tL=1um, span tD+lext = 5um, kL=1.4, k2=1 *)
        let expected =
          log (((1e-6 *. 2.) +. 1e-5) /. 1e-5)
          /. (2. *. 4. *. Float.pi *. 1.4 *. 5e-6)
        in
        close_rel "R3'" expected rs.Resistances.triples.(0).Resistances.liner);
    test "vertical resistances unchanged under division" (fun () ->
        let s = Params.fig7_stack () in
        let base = Resistances.of_stack s in
        let div = Cluster.divided_resistances s 9 in
        Array.iteri
          (fun i (t : Resistances.triple) ->
            let b = base.Resistances.triples.(i) in
            close_rel "tsv" b.Resistances.tsv t.Resistances.tsv;
            close_rel "bulk" b.Resistances.bulk t.Resistances.bulk)
          div.Resistances.triples);
    test "division monotonically cools" (fun () ->
        let s = Params.fig7_stack () in
        let rise n = Model_a.max_rise (Cluster.solve s n) in
        Alcotest.(check bool) "1>2" true (rise 1 > rise 2);
        Alcotest.(check bool) "2>4" true (rise 2 > rise 4);
        Alcotest.(check bool) "4>9" true (rise 4 > rise 9);
        Alcotest.(check bool) "9>16" true (rise 9 > rise 16));
    test "diminishing returns (saturation)" (fun () ->
        let s = Params.fig7_stack () in
        let rise n = Model_a.max_rise (Cluster.solve s n) in
        let d12 = rise 1 -. rise 2 in
        let d916 = rise 9 -. rise 16 in
        Alcotest.(check bool) "saturates" true (d916 < d12));
    test "naive recomputation stays close to eq. 22" (fun () ->
        let s = Params.fig7_stack () in
        List.iter
          (fun n ->
            let a = Model_a.max_rise (Cluster.solve s n) in
            let b = Model_a.max_rise (Cluster.solve_naive s n) in
            Alcotest.(check bool)
              (Printf.sprintf "n=%d: %.3f vs %.3f" n a b)
              true
              (Float.abs (a -. b) /. a < 0.02))
          [ 1; 2; 4; 9; 16 ]);
    test "n < 1 rejected" (fun () ->
        check_raises_invalid "n" (fun () ->
            ignore (Cluster.divided_resistances (Params.fig7_stack ()) 0)));
    test "max_rise_series shape" (fun () ->
        let stack = Params.fig7_stack () in
        let series = List.map (fun n -> Model_a.max_rise (Cluster.solve stack n)) [ 1; 4; 16 ] in
        match series with
        | [ a; b; c ] ->
          Alcotest.(check bool) "descending" true (a > b && b > c)
        | _ -> Alcotest.fail "wrong length");
  ]

let property_tests =
  [
    qtest ~count:30 "division cools every random block"
      QCheck2.Gen.(pair gen_stack3 (int_range 2 16))
      (fun (s, n) ->
        Model_a.max_rise (Cluster.solve s n) < Model_a.max_rise (Cluster.solve s 1));
    qtest ~count:30 "coefficients commute with division"
      QCheck2.Gen.(int_range 2 16)
      (fun n ->
        (* dividing then fitting-k2 equals fitting-k2 then dividing: both
           scale the liner identically *)
        let s = Params.fig7_stack () in
        let coeffs = Coefficients.make ~k1:1.3 ~k2:0.55 in
        let a = Cluster.divided_resistances ~coeffs s n in
        let b = Cluster.divided_resistances s n in
        Array.for_all2
          (fun (x : Resistances.triple) (y : Resistances.triple) ->
            Float.abs (x.Resistances.liner -. (y.Resistances.liner /. 0.55))
            < 1e-9 *. x.Resistances.liner)
          a.Resistances.triples b.Resistances.triples);
  ]

let suite = ("cluster", unit_tests @ property_tests)
