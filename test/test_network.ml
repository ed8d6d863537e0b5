(* Tests for the resistive-network substrate (Circuit). *)

module Circuit = Ttsv_network.Circuit
open Helpers

(* A two-resistor divider: q flows through r1 then r2 to ground. *)
let divider r1 r2 q =
  let c = Circuit.create () in
  let g = Circuit.ground c in
  let mid = Circuit.add_node c "mid" in
  let top = Circuit.add_node c "top" in
  Circuit.add_resistor c g mid r2;
  Circuit.add_resistor c mid top r1;
  Circuit.add_heat_source c top q;
  (c, mid, top)

let circuit_tests =
  [
    test "series divider temperatures" (fun () ->
        let c, mid, top = divider 3. 7. 2. in
        let s = Circuit.solve c in
        close_rel "mid" 14. (Circuit.temperature s mid);
        close_rel "top" 20. (Circuit.temperature s top));
    test "parallel resistors combine" (fun () ->
        let c = Circuit.create () in
        let g = Circuit.ground c in
        let n = Circuit.add_node c "n" in
        Circuit.add_resistor c g n 10.;
        Circuit.add_resistor c g n 10.;
        Circuit.add_heat_source c n 1.;
        let s = Circuit.solve c in
        close_rel "5 K/W" 5. (Circuit.temperature s n));
    test "ground temperature is zero" (fun () ->
        let c, _, _ = divider 1. 1. 1. in
        let s = Circuit.solve c in
        close "ground" 0. (Circuit.temperature s (Circuit.ground c)));
    test "disconnected node is reported by name" (fun () ->
        let c = Circuit.create () in
        let _ = Circuit.add_node c "floating" in
        (match Circuit.solve c with
        | exception Invalid_argument msg ->
          Alcotest.(check bool) "names the node" true
            (String.length msg > 0
            && Option.is_some (String.index_opt msg 'f'))
        | _ -> Alcotest.fail "expected Invalid_argument"));
    test "self loop rejected" (fun () ->
        let c = Circuit.create () in
        let n = Circuit.add_node c "n" in
        check_raises_invalid "self" (fun () -> Circuit.add_resistor c n n 1.));
    test "nonpositive resistance rejected" (fun () ->
        let c = Circuit.create () in
        let n = Circuit.add_node c "n" in
        check_raises_invalid "zero" (fun () -> Circuit.add_resistor c n (Circuit.ground c) 0.);
        check_raises_invalid "nan" (fun () ->
            Circuit.add_resistor c n (Circuit.ground c) Float.nan));
    test "foreign node rejected" (fun () ->
        let c1 = Circuit.create () and c2 = Circuit.create () in
        let n1 = Circuit.add_node c1 "a" and n2 = Circuit.add_node c2 "b" in
        check_raises_invalid "foreign" (fun () -> Circuit.add_resistor c1 n1 n2 1.));
    test "sources accumulate" (fun () ->
        let c = Circuit.create () in
        let n = Circuit.add_node c "n" in
        Circuit.add_resistor c n (Circuit.ground c) 2.;
        Circuit.add_heat_source c n 1.;
        Circuit.add_heat_source c n 0.5;
        let s = Circuit.solve c in
        close_rel "temp" 3. (Circuit.temperature s n));
    test "negative source extracts heat" (fun () ->
        let c = Circuit.create () in
        let n = Circuit.add_node c "n" in
        Circuit.add_resistor c n (Circuit.ground c) 2.;
        Circuit.add_heat_source c n (-1.);
        let s = Circuit.solve c in
        close_rel "below ambient" (-2.) (Circuit.temperature s n));
    test "large ladder uses CG path and stays accurate" (fun () ->
        (* 400-node ladder: dense threshold is 256, so this exercises CG;
           closed form of a uniform ladder: T(k) = q * sum_{j<=k} j * r? ...
           simpler: all heat at the top, T_top = n * r * q *)
        let n = 400 and r = 0.5 and q = 2. in
        let c = Circuit.create () in
        let nodes =
          Array.init n (fun i -> Circuit.add_node c (Printf.sprintf "n%d" i))
        in
        Circuit.add_resistor c (Circuit.ground c) nodes.(0) r;
        for i = 0 to n - 2 do
          Circuit.add_resistor c nodes.(i) nodes.(i + 1) r
        done;
        Circuit.add_heat_source c nodes.(n - 1) q;
        let s = Circuit.solve c in
        close_rel ~tol:1e-6 "top of ladder" (float_of_int n *. r *. q)
          (Circuit.temperature s nodes.(n - 1));
        Alcotest.(check bool) "residual tiny" true (Circuit.residual_norm s < 1e-8));
    test "max_temperature of empty circuit is zero" (fun () ->
        close "empty" 0. (Circuit.max_temperature (Circuit.solve (Circuit.create ()))));
  ]

(* superposition: solving with q1+q2 equals sum of separate solutions *)
let superposition_prop (r1, r2, q1, q2) =
  let solve_with q =
    let c, mid, top = divider r1 r2 q in
    let s = Circuit.solve c in
    (Circuit.temperature s mid, Circuit.temperature s top)
  in
  let m1, t1 = solve_with q1 in
  let m2, t2 = solve_with q2 in
  let m12, t12 = solve_with (q1 +. q2) in
  Float.abs (m12 -. (m1 +. m2)) < 1e-9 && Float.abs (t12 -. (t1 +. t2)) < 1e-9

let property_tests =
  [
    qtest ~count:60 "superposition (linearity)"
      QCheck2.Gen.(
        let pos = float_range 0.1 50. in
        quad pos pos pos pos)
      superposition_prop;
    qtest ~count:60 "divider temperatures scale with resistance"
      QCheck2.Gen.(pair (float_range 0.1 10.) (float_range 0.1 10.))
      (fun (r1, r2) ->
        let c, _, top = divider r1 r2 1. in
        let s = Circuit.solve c in
        Float.abs (Circuit.temperature s top -. (r1 +. r2)) < 1e-9);
  ]

let suite = ("network", circuit_tests @ property_tests)
