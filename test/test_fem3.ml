(* Tests for the 3-D Cartesian finite-volume solver. *)

module Units = Ttsv_physics.Units
module Params = Ttsv_core.Params
module Robust = Ttsv_robust.Robust
module Tsv = Ttsv_geometry.Tsv
module Plane = Ttsv_geometry.Plane
module Stack = Ttsv_geometry.Stack
module Grid3 = Ttsv_fem.Grid3
module Problem3 = Ttsv_fem.Problem3
module Solver3 = Ttsv_fem.Solver3
module Problem = Ttsv_fem.Problem
module Solver = Ttsv_fem.Solver
open Helpers

let grid_tests =
  [
    test "volumes tile the box" (fun () ->
        let g =
          Grid3.make ~x_faces:[| 0.; 1e-6; 3e-6 |] ~y_faces:[| 0.; 2e-6 |]
            ~z_faces:[| 0.; 1e-6; 2e-6; 5e-6 |]
        in
        let total = ref 0. in
        for ix = 0 to Grid3.nx g - 1 do
          for iy = 0 to Grid3.ny g - 1 do
            for iz = 0 to Grid3.nz g - 1 do
              total := !total +. Grid3.volume g ix iy iz
            done
          done
        done;
        close_rel "W*D*H" (3e-6 *. 2e-6 *. 5e-6) !total);
    test "face areas" (fun () ->
        let g =
          Grid3.make ~x_faces:[| 0.; 2e-6 |] ~y_faces:[| 0.; 3e-6 |] ~z_faces:[| 0.; 5e-6 |]
        in
        close_rel "x-normal" (3e-6 *. 5e-6) (Grid3.face_area_x g 0 0);
        close_rel "y-normal" (2e-6 *. 5e-6) (Grid3.face_area_y g 0 0);
        close_rel "z-normal" (2e-6 *. 3e-6) (Grid3.face_area_z g 0 0));
    test "index round trip" (fun () ->
        let g =
          Grid3.make ~x_faces:[| 0.; 1.; 2. |] ~y_faces:[| 0.; 1.; 2.; 3. |]
            ~z_faces:[| 0.; 1. |]
        in
        Alcotest.(check int) "cells" 6 (Grid3.cells g);
        Alcotest.(check int) "idx" 5 (Grid3.index g 1 2 0));
    test "validation" (fun () ->
        check_raises_invalid "start" (fun () ->
            ignore
              (Grid3.make ~x_faces:[| 1.; 2. |] ~y_faces:[| 0.; 1. |] ~z_faces:[| 0.; 1. |])));
  ]

(* Uniform slab with top heating: same analytic oracle as the axisymmetric
   solver, now in Cartesian coordinates. *)
let slab3 () =
  let n = 6 and nz = 20 in
  let side = 1e-4 and h = 1e-4 and k = 25. and q = 0.5 in
  let faces len m = Array.init (m + 1) (fun i -> len *. float_of_int i /. float_of_int m) in
  let g = Grid3.make ~x_faces:(faces side n) ~y_faces:(faces side n) ~z_faces:(faces h nz) in
  let cells = Grid3.cells g in
  let conductivity = Array.make cells k in
  let source = Array.make cells 0. in
  for iy = 0 to n - 1 do
    for ix = 0 to n - 1 do
      let idx = Grid3.index g ix iy (nz - 1) in
      source.(idx) <- q /. float_of_int (n * n)
    done
  done;
  let p = Problem3.make ~grid:g ~conductivity ~source in
  let expected =
    (* temperature at the top cell centre: q * (h - dz/2) / (k A) *)
    q *. (h -. (h /. float_of_int nz /. 2.)) /. (k *. side *. side)
  in
  (Solver3.solve p, expected)

let small_stack () =
  (* a small, quick-to-solve block: 30 um cell, 3 um via *)
  let tsv =
    Tsv.make ~radius:(Units.um 3.) ~liner_thickness:(Units.um 0.5) ~extension:(Units.um 1.) ()
  in
  let plane ~first =
    Plane.make
      ~t_substrate:(Units.um (if first then 80. else 20.))
      ~t_ild:(Units.um 3.)
      ~t_bond:(Units.um (if first then 0. else 1.))
      ~t_device:(Units.um 1.)
      ~device_power_density:(Units.w_per_mm3 700.)
      ~ild_power_density:(Units.w_per_mm3 70.) ()
  in
  Stack.make
    ~footprint:(Units.um2 (30. *. 30.))
    ~planes:[ plane ~first:true; plane ~first:false; plane ~first:false ]
    ~tsv ()

let solver_tests =
  [
    test "uniform slab matches the analytic series resistance" (fun () ->
        let res, expected = slab3 () in
        close_rel ~tol:1e-6 "dT" expected (Solver3.max_rise res));
    test "energy conservation on the slab" (fun () ->
        let res, _ = slab3 () in
        Alcotest.(check bool) "balance" true (Solver3.energy_imbalance res < 1e-8));
    test "stack problem: wattage matches the analytic heat inputs" (fun () ->
        let stack = small_stack () in
        let p = Problem3.of_stack stack in
        close_rel ~tol:1e-9 "wattage"
          (Ttsv_numerics.Vec.sum (Stack.heat_inputs stack))
          (Problem3.total_source p));
    test "stack solve conserves energy and agrees with the axisymmetric solver" (fun () ->
        let stack = small_stack () in
        let r3 = Solver3.solve (Problem3.of_stack stack) in
        Alcotest.(check bool) "balance" true (Solver3.energy_imbalance r3 < 1e-6);
        let r2 = Solver.solve (Problem.of_stack ~resolution:2 stack) in
        let a = Solver3.max_rise r3 and b = Solver.max_rise r2 in
        Alcotest.(check bool)
          (Printf.sprintf "square %.3f vs cylinder %.3f within 6%%" a b)
          true
          (Float.abs (a -. b) /. b < 0.06));
    test "a zero-conductivity cell is rejected up front, as in 2-D" (fun () ->
        let p = Problem3.of_stack ~resolution:1 (Params.fig5_stack (Units.um 1.)) in
        let n = Array.length p.Problem3.conductivity in
        let conductivity = Array.copy p.Problem3.conductivity in
        conductivity.(n / 2) <- 0.;
        match Solver3.try_solve { p with Problem3.conductivity } with
        | Ok r ->
          Alcotest.failf "solved to %.4g K in %d iterations" (Solver3.max_rise r)
            r.Solver3.iterations
        | Error f -> (
          match f.Robust.reason with
          | Robust.Invalid_input problems ->
            Alcotest.(check (list string))
              "names the cell"
              [
                Printf.sprintf "conductivity field contains invalid entries (first at cell %d)"
                  (n / 2);
              ]
              problems
          | Robust.Exhausted | Robust.Deadline_exceeded ->
            Alcotest.fail "expected Invalid_input"));
    test "via cluster: centers land on a grid and must fit" (fun () ->
        let stack = small_stack () in
        (match Problem3.grid_centers_for_cluster stack 4 with
        | [ (x0, y0); _; _; (x3, y3) ] ->
          close_rel "first quadrant" (Units.um 7.5) x0;
          close_rel "first quadrant y" (Units.um 7.5) y0;
          close_rel "last" (Units.um 22.5) x3;
          close_rel "last y" (Units.um 22.5) y3
        | _ -> Alcotest.fail "expected four centers");
        check_raises_invalid "not a square" (fun () ->
            ignore (Problem3.grid_centers_for_cluster stack 5)));
    test "off-cell via rejected" (fun () ->
        let stack = small_stack () in
        check_raises_invalid "outside" (fun () ->
            ignore (Problem3.of_stack ~via_centers:[ (0., 0.) ] stack)));
    test "cluster of four cools the cell (true layout)" (fun () ->
        let stack = small_stack () in
        let single = Solver3.max_rise (Solver3.solve (Problem3.of_stack stack)) in
        let divided = Stack.with_tsv stack (Tsv.divide stack.Stack.tsv 4) in
        let centers = Problem3.grid_centers_for_cluster divided 4 in
        let four =
          Solver3.max_rise (Solver3.solve (Problem3.of_stack ~via_centers:centers divided))
        in
        Alcotest.(check bool)
          (Printf.sprintf "four vias %.3f < one via %.3f" four single)
          true (four < single));
    test "rise_at top center above rise at sink corner" (fun () ->
        let stack = small_stack () in
        let r = Solver3.solve (Problem3.of_stack stack) in
        let side = sqrt stack.Stack.footprint in
        let top = Solver3.rise_at r ~x:(side /. 2.) ~y:(side /. 2.) ~z:(Units.um 130.) in
        let bottom = Solver3.rise_at r ~x:0. ~y:0. ~z:0. in
        Alcotest.(check bool) "ordering" true (top > bottom);
        Alcotest.(check bool) "bottom near sink" true (bottom < 0.2 *. Solver3.max_rise r));
    test "top_field has the grid's size and contains the max" (fun () ->
        let stack = small_stack () in
        let r = Solver3.solve (Problem3.of_stack stack) in
        let g = r.Solver3.problem.Problem3.grid in
        let field = Solver3.top_field r in
        Alcotest.(check int) "size" (Grid3.nx g * Grid3.ny g) (Array.length field);
        let fmax = Array.fold_left Float.max 0. field in
        close_rel ~tol:0.2 "top row holds (nearly) the max" (Solver3.max_rise r) fmax);
  ]

let suite = ("fem3", grid_tests @ solver_tests)
