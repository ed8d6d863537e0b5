(* Tests for the finite-volume FEM substitute: grid geometry, problem
   construction, analytic slab oracles and conservation laws. *)

module Units = Ttsv_physics.Units
module Params = Ttsv_core.Params
module Grid = Ttsv_fem.Grid
module Problem = Ttsv_fem.Problem
module Solver = Ttsv_fem.Solver
module Stack = Ttsv_geometry.Stack
open Helpers

let grid_tests =
  [
    test "annulus areas tile the disc" (fun () ->
        let g =
          Grid.make
            ~r_faces:[| 0.; 1e-6; 3e-6; 1e-5 |]
            ~z_faces:[| 0.; 1e-6 |]
        in
        let total = ref 0. in
        for ir = 0 to Grid.nr g - 1 do
          total := !total +. Grid.axial_face_area g ir
        done;
        close_rel "pi R^2" (Float.pi *. 1e-10) !total);
    test "volumes tile the cylinder" (fun () ->
        let g =
          Grid.make
            ~r_faces:[| 0.; 2e-6; 1e-5 |]
            ~z_faces:[| 0.; 1e-6; 5e-6 |]
        in
        let total = ref 0. in
        for ir = 0 to Grid.nr g - 1 do
          for iz = 0 to Grid.nz g - 1 do
            total := !total +. Grid.volume g ir iz
          done
        done;
        close_rel "pi R^2 H" (Float.pi *. 1e-10 *. 5e-6) !total);
    test "radial face area" (fun () ->
        let g = Grid.make ~r_faces:[| 0.; 2e-6; 4e-6 |] ~z_faces:[| 0.; 3e-6 |] in
        close_rel "2 pi r dz" (2. *. Float.pi *. 2e-6 *. 3e-6) (Grid.radial_face_area g 0 0));
    test "validation" (fun () ->
        check_raises_invalid "not from zero" (fun () ->
            ignore (Grid.make ~r_faces:[| 1e-6; 2e-6 |] ~z_faces:[| 0.; 1e-6 |]));
        check_raises_invalid "non-increasing" (fun () ->
            ignore (Grid.make ~r_faces:[| 0.; 2e-6; 2e-6 |] ~z_faces:[| 0.; 1e-6 |])));
    test "refine_interval" (fun () ->
        match Grid.refine_interval 0. 1. 4 with
        | [ a; b; c ] ->
          close "a" 0.25 a;
          close "b" 0.5 b;
          close "c" 0.75 c
        | _ -> Alcotest.fail "wrong count");
    test "geometric_interval widths grow by the ratio" (fun () ->
        match Grid.geometric_interval 0. 7. 3 2. with
        | [ a; b ] ->
          close_rel "first width 1" 1. a;
          close_rel "second width 2" 3. b
        | _ -> Alcotest.fail "wrong count");
  ]

let problem_tests =
  [
    test "total source matches the analytic heat inputs" (fun () ->
        let stack = Params.block () in
        let p = Problem.of_stack stack in
        close_rel ~tol:1e-9 "wattage"
          (Ttsv_numerics.Vec.sum (Stack.heat_inputs stack))
          (Problem.total_source p));
    test "source scales with resolution-invariant wattage" (fun () ->
        let stack = Params.block () in
        let p1 = Problem.of_stack ~resolution:1 stack in
        let p2 = Problem.of_stack ~resolution:2 stack in
        close_rel ~tol:1e-9 "same total" (Problem.total_source p1) (Problem.total_source p2));
    test "axis cell inside the TSV span is copper" (fun () ->
        let stack = Params.block () in
        let p = Problem.of_stack stack in
        let g = p.Problem.grid in
        (* a z safely inside plane-2 substrate: tSi1 + tD1 + tb + tSi2/2 *)
        let z = Units.um (500. +. 4. +. 1. +. 22.) in
        let iz = ref 0 in
        for j = 0 to Grid.nz g - 1 do
          if Grid.z_center g j < z then iz := j
        done;
        close "k copper" 400. p.Problem.conductivity.(Grid.index g 0 !iz));
    test "outer cell below the TSV tip is silicon" (fun () ->
        let stack = Params.block () in
        let p = Problem.of_stack stack in
        let g = p.Problem.grid in
        close "k si" 150. p.Problem.conductivity.(Grid.index g (Grid.nr g - 1) 0));
    test "make validates lengths and positivity" (fun () ->
        let g = Grid.make ~r_faces:[| 0.; 1e-6 |] ~z_faces:[| 0.; 1e-6 |] in
        check_raises_invalid "length" (fun () ->
            ignore (Problem.make ~grid:g ~conductivity:[| 1.; 2. |] ~source:[| 0. |]));
        check_raises_invalid "positivity" (fun () ->
            ignore (Problem.make ~grid:g ~conductivity:[| 0. |] ~source:[| 0. |])));
    test "resolution must be >= 1" (fun () ->
        check_raises_invalid "resolution" (fun () ->
            ignore (Problem.of_stack ~resolution:0 (Params.block ()))));
  ]

(* Analytic oracle: a layered slab with flux q on top has
   dT(surface) = q * sum t_i/(k_i A).  The discrete maximum lives at the top
   cell's centre, half a cell below the surface, so the expectation subtracts
   that half-cell. *)
let slab_oracle layers =
  let radius = 1e-4 in
  let cells_per_layer = 20 in
  let area = Float.pi *. radius *. radius in
  let q = 0.5 in
  let p = Problem.uniform_column ~layers ~radius ~cells_per_layer ~top_flux:q in
  let res = Solver.solve p in
  let surface = q *. List.fold_left (fun acc (t, k) -> acc +. (t /. (k *. area))) 0. layers in
  let t_last, k_last = List.nth layers (List.length layers - 1) in
  let half_cell = q *. (t_last /. float_of_int cells_per_layer /. 2.) /. (k_last *. area) in
  (Solver.max_rise res, surface -. half_cell, res)

let solver_tests =
  [
    test "single-material slab matches series resistance" (fun () ->
        let got, expected, _ = slab_oracle [ (1e-4, 150.) ] in
        close_rel ~tol:1e-6 "dT" expected got);
    test "three-layer slab with contrast 1000x matches" (fun () ->
        let got, expected, _ = slab_oracle [ (1e-4, 150.); (5e-6, 0.15); (2e-5, 1.4) ] in
        close_rel ~tol:1e-6 "dT" expected got);
    test "energy conservation on the slab" (fun () ->
        let _, _, res = slab_oracle [ (1e-4, 150.); (1e-5, 1.4) ] in
        Alcotest.(check bool) "balance" true (Solver.energy_imbalance res < 1e-8));
    test "energy conservation on the paper block" (fun () ->
        let res = Solver.solve (Problem.of_stack (Params.block ())) in
        Alcotest.(check bool) "balance" true (Solver.energy_imbalance res < 1e-6));
    test "volumetric heating of a uniform slab matches the parabola" (fun () ->
        (* uniform k, uniform q''': T(z) = (q'''/k)(H z - z^2/2); peak at top *)
        let radius = 1e-4 and h = 1e-4 and k = 10. and qv = 1e9 in
        let nz = 60 in
        let z_faces = Array.init (nz + 1) (fun i -> h *. float_of_int i /. float_of_int nz) in
        let r_faces = [| 0.; radius |] in
        let g = Grid.make ~r_faces ~z_faces in
        let n = Grid.cells g in
        let conductivity = Array.make n k in
        let source = Array.init n (fun idx -> qv *. Grid.volume g 0 (idx / Grid.nr g)) in
        let p = Problem.make ~grid:g ~conductivity ~source in
        let res = Solver.solve p in
        let expected = qv /. k *. ((h *. h) -. (h *. h /. 2.)) in
        close_rel ~tol:1e-3 "peak" expected (Solver.max_rise res));
    test "hotter at the top: axis profile is monotone for the block" (fun () ->
        let res = Solver.solve (Problem.of_stack (Params.block ())) in
        let profile = Solver.axis_profile res in
        Alcotest.(check bool) "top > bottom" true
          (snd profile.(Array.length profile - 1) > snd profile.(0)));
    test "top profile peaks away from the TSV" (fun () ->
        (* the TTSV outlet is the coolest spot of the top surface *)
        let res = Solver.solve (Problem.of_stack (Params.block ())) in
        let g = res.Solver.problem.Problem.grid in
        let top r = Solver.rise_at res ~r ~z:(Grid.height g) in
        let center = top 0. and edge = top (Grid.outer_radius g) in
        Alcotest.(check bool) "edge hotter than TSV center" true (edge >= center));
    test "rise_at agrees with max somewhere on the top row" (fun () ->
        let res = Solver.solve (Problem.of_stack (Params.block ())) in
        let g = res.Solver.problem.Problem.grid in
        let top = Solver.rise_at res ~r:(Grid.outer_radius g) ~z:(Grid.height g) in
        Alcotest.(check bool) "close to max" true (top > 0.9 *. Solver.max_rise res));
    test "mesh refinement converges monotonically for the block" (fun () ->
        let stack = Params.block () in
        let rise r = Solver.max_rise (Solver.solve (Problem.of_stack ~resolution:r stack)) in
        let r1 = rise 1 and r2 = rise 2 and r3 = rise 3 in
        Alcotest.(check bool) "shrinking increments" true
          (Float.abs (r3 -. r2) < Float.abs (r2 -. r1)));
  ]

let property_tests =
  [
    qtest ~count:10 "energy is conserved on random stacks" gen_stack3 (fun s ->
        let res = Solver.solve (Problem.of_stack s) in
        Solver.energy_imbalance res < 1e-6);
    qtest ~count:10 "FV rise is positive and bounded by a no-TSV bound" gen_stack3 (fun s ->
        let res = Solver.solve (Problem.of_stack s) in
        let rise = Solver.max_rise res in
        (* crude upper bound: all heat through the full stack in series over
           the footprint, without any TSV *)
        let bound =
          let acc = ref 0. in
          for i = 0 to Stack.num_planes s - 1 do
            let p = Stack.plane s i in
            acc :=
              !acc
              +. (p.Ttsv_geometry.Plane.t_ild /. 1.4)
              +. (p.Ttsv_geometry.Plane.t_substrate /. 150.)
              +. (p.Ttsv_geometry.Plane.t_bond /. 0.15)
          done;
          Stack.total_heat s *. !acc /. s.Stack.footprint
        in
        rise > 0. && rise < bound);
  ]

let suite = ("fem", grid_tests @ problem_tests @ solver_tests @ property_tests)
