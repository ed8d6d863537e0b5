(* Tests for the full-chip compact model and the via allocator. *)

module Units = Ttsv_physics.Units
module Plane = Ttsv_geometry.Plane
module Tsv = Ttsv_geometry.Tsv
module Stack = Ttsv_geometry.Stack
module Model_a = Ttsv_core.Model_a
module Coefficients = Ttsv_core.Coefficients
module Cluster = Ttsv_core.Cluster
module Params = Ttsv_core.Params
module Power_map = Ttsv_chip.Power_map
module Chip_model = Ttsv_chip.Chip_model
module Allocation = Ttsv_chip.Allocation
open Helpers

let power_map_tests =
  [
    test "uniform splits evenly" (fun () ->
        let m = Power_map.uniform ~nx:4 ~ny:2 ~total:8. in
        close_rel "tile" 1. (Power_map.get m 3 1);
        close_rel "total" 8. (Power_map.total m));
    test "hotspot adds on top" (fun () ->
        let m = Power_map.uniform ~nx:4 ~ny:4 ~total:16. in
        let m = Power_map.add_hotspot m ~x0:1 ~y0:1 ~x1:2 ~y1:2 ~watts:4. in
        close_rel "inside" 2. (Power_map.get m 1 1);
        close_rel "outside" 1. (Power_map.get m 0 0);
        close_rel "total" 20. (Power_map.total m));
    test "hotspot clamps to the grid" (fun () ->
        let m = Power_map.add_hotspot (Power_map.zero ~nx:2 ~ny:2) ~x0:(-5) ~y0:0 ~x1:0 ~y1:0
            ~watts:3.
        in
        close_rel "clamped" 3. (Power_map.get m 0 0));
    test "validation" (fun () ->
        check_raises_invalid "grid" (fun () -> ignore (Power_map.uniform ~nx:0 ~ny:1 ~total:1.));
        check_raises_invalid "negative" (fun () ->
            ignore (Power_map.uniform ~nx:1 ~ny:1 ~total:(-1.))));
  ]

(* one tile the size of the paper block's 100 um x 100 um unit cell *)
let single_tile_chip ?(coeffs = Coefficients.unity) stack =
  Chip_model.make ~coeffs ~width:(Units.um 100.) ~height:(Units.um 100.) ~nx:1 ~ny:1 stack

let chip_tests =
  [
    test "energy conservation through the sink" (fun () ->
        let chip =
          Chip_model.make ~width:(Units.mm 1.) ~height:(Units.mm 1.) ~nx:4 ~ny:4
            (Params.block ())
        in
        let ds = Chip_model.uniform_density chip 0.005 in
        let power = List.init 3 (fun _ -> Power_map.uniform ~nx:4 ~ny:4 ~total:0.5) in
        let r = Chip_model.solve chip ds power in
        close_rel ~tol:1e-8 "sink flow" 1.5 r.Chip_model.sink_heat);
    test "a hotspot heats its own column the most" (fun () ->
        let chip =
          Chip_model.make ~width:(Units.mm 2.) ~height:(Units.mm 2.) ~nx:8 ~ny:8
            (Params.block ())
        in
        let ds = Chip_model.uniform_density chip 0.002 in
        let base = Power_map.uniform ~nx:8 ~ny:8 ~total:0.5 in
        let hot = Power_map.add_hotspot base ~x0:6 ~y0:6 ~x1:6 ~y1:6 ~watts:0.5 in
        let r = Chip_model.solve chip ds [ base; base; hot ] in
        let _, hx, hy = r.Chip_model.hottest in
        Alcotest.(check (pair int int)) "hotspot location" (6, 6) (hx, hy));
    test "adding vias under the hotspot cools it" (fun () ->
        let chip =
          Chip_model.make ~width:(Units.mm 2.) ~height:(Units.mm 2.) ~nx:4 ~ny:4
            (Params.block ())
        in
        let power =
          List.init 3 (fun _ ->
              Power_map.add_hotspot (Power_map.zero ~nx:4 ~ny:4) ~x0:2 ~y0:2 ~x1:2 ~y1:2
                ~watts:0.4)
        in
        let cold = Chip_model.solve chip (Chip_model.uniform_density chip 0.) power in
        let ds = Chip_model.uniform_density chip 0. in
        ds.((2 * 4) + 2) <- 0.05;
        let vias = Chip_model.solve chip ds power in
        Alcotest.(check bool) "cooler with vias" true
          (vias.Chip_model.max_rise < cold.Chip_model.max_rise));
    test "lateral spreading: neighbours of a hotspot warm up" (fun () ->
        let chip =
          Chip_model.make ~width:(Units.mm 1.) ~height:(Units.mm 1.) ~nx:5 ~ny:5
            (Params.block ())
        in
        let power =
          List.init 3 (fun _ ->
              Power_map.add_hotspot (Power_map.zero ~nx:5 ~ny:5) ~x0:2 ~y0:2 ~x1:2 ~y1:2
                ~watts:0.2)
        in
        let r = Chip_model.solve chip (Chip_model.uniform_density chip 0.) power in
        let center = Chip_model.rise_at r ~plane:2 ~x:2 ~y:2 in
        let neighbour = Chip_model.rise_at r ~plane:2 ~x:1 ~y:2 in
        let corner = Chip_model.rise_at r ~plane:2 ~x:0 ~y:0 in
        Alcotest.(check bool) "center > neighbour" true (center > neighbour);
        Alcotest.(check bool) "neighbour > corner" true (neighbour > corner);
        Alcotest.(check bool) "corner still warm" true (corner > 0.));
    test "validation" (fun () ->
        let chip = single_tile_chip (Params.block ()) in
        check_raises_invalid "densities length" (fun () ->
            ignore (Chip_model.solve chip [| 0.; 0. |] [ Power_map.zero ~nx:1 ~ny:1 ]));
        check_raises_invalid "plane count" (fun () ->
            ignore
              (Chip_model.solve chip
                 (Chip_model.uniform_density chip 0.)
                 [ Power_map.zero ~nx:1 ~ny:1 ]));
        check_raises_invalid "grid mismatch" (fun () ->
            ignore
              (Chip_model.solve chip
                 (Chip_model.uniform_density chip 0.)
                 [
                   Power_map.zero ~nx:2 ~ny:1;
                   Power_map.zero ~nx:2 ~ny:1;
                   Power_map.zero ~nx:2 ~ny:1;
                 ])));
  ]

let alloc_fixture () =
  let chip =
    Chip_model.make ~width:(Units.mm 1.) ~height:(Units.mm 1.) ~nx:4 ~ny:4
      (Params.block ())
  in
  let power =
    List.init 3 (fun _ ->
        Power_map.add_hotspot
          (Power_map.uniform ~nx:4 ~ny:4 ~total:0.2)
          ~x0:1 ~y0:1 ~x1:2 ~y1:2 ~watts:0.3)
  in
  (chip, power)

let allocation_tests =
  [
    test "allocator meets a reachable budget" (fun () ->
        let chip, power = alloc_fixture () in
        let bare = Chip_model.solve chip (Chip_model.uniform_density chip 0.) power in
        let budget = bare.Chip_model.max_rise *. 0.8 in
        let o = Allocation.default_options ~budget in
        let out = Allocation.allocate chip power { o with step = 0.01 } in
        Alcotest.(check bool) "feasible" true out.Allocation.feasible;
        Alcotest.(check bool) "met" true (out.Allocation.final.Chip_model.max_rise <= budget);
        Alcotest.(check bool) "spent metal" true (out.Allocation.metal_area > 0.));
    test "allocation history is monotone decreasing" (fun () ->
        let chip, power = alloc_fixture () in
        let bare = Chip_model.solve chip (Chip_model.uniform_density chip 0.) power in
        let o = Allocation.default_options ~budget:(bare.Chip_model.max_rise *. 0.85) in
        let out = Allocation.allocate chip power { o with step = 0.01 } in
        let h = out.Allocation.history in
        let ok = ref true in
        for i = 0 to Array.length h - 2 do
          if h.(i + 1) > h.(i) +. 1e-9 then ok := false
        done;
        Alcotest.(check bool) "monotone" true !ok);
    test "vias go where the heat is" (fun () ->
        let chip, power = alloc_fixture () in
        let bare = Chip_model.solve chip (Chip_model.uniform_density chip 0.) power in
        let o = Allocation.default_options ~budget:(bare.Chip_model.max_rise *. 0.85) in
        let out = Allocation.allocate chip power { o with step = 0.01 } in
        let ds = out.Allocation.densities in
        let inside = ds.((1 * 4) + 1) +. ds.((1 * 4) + 2) +. ds.((2 * 4) + 1) +. ds.((2 * 4) + 2) in
        let corners = ds.(0) +. ds.(3) +. ds.((3 * 4) + 0) +. ds.((3 * 4) + 3) in
        Alcotest.(check bool) "hotspot gets the metal" true (inside > corners));
    test "unreachable budget reported infeasible" (fun () ->
        let chip, power = alloc_fixture () in
        let o = Allocation.default_options ~budget:1e-6 in
        let out = Allocation.allocate chip power { o with step = 0.05; max_iterations = 50 } in
        Alcotest.(check bool) "infeasible" true (not out.Allocation.feasible));
    test "options validation" (fun () ->
        let chip, power = alloc_fixture () in
        let o = Allocation.default_options ~budget:10. in
        check_raises_invalid "step" (fun () ->
            ignore (Allocation.allocate chip power { o with step = 0. }));
        check_raises_invalid "cap" (fun () ->
            ignore (Allocation.allocate chip power { o with max_density = 1.5 }));
        check_raises_invalid "budget" (fun () ->
            ignore (Allocation.default_options ~budget:0.)));
  ]

(* Block geometries across Params.block_checked's ranges, valid by
   construction (all in um): a quarter of the outer radii r + t_L come
   within 6 um of the 100 x 100 footprint's limit (56.42), and a fifth of
   the liners are 5-50 nm thin. *)
let gen_block =
  let open QCheck2.Gen in
  let* outer = frequency [ (3, float_range 1. 50.); (1, float_range 50. 56.4) ] in
  let* t_liner = frequency [ (4, float_range 0.05 5.); (1, float_range 0.005 0.05) ] in
  let* t_ild = float_range 0.5 20. in
  let* t_bond = float_range 0.1 10. in
  let* t_si23 = float_range 2. 200. in
  let* t_si1 = float_range 20. 800. in
  let t_liner = Float.min t_liner (outer /. 2.) in
  match
    Params.block_checked
      ~r:(Units.um (outer -. t_liner))
      ~t_liner:(Units.um t_liner) ~t_ild:(Units.um t_ild) ~t_bond:(Units.um t_bond)
      ~t_si23:(Units.um t_si23) ~t_si1:(Units.um t_si1) ()
  with
  | Ok stack -> return stack
  | Error vs -> failwith (Ttsv_robust.Validate.to_string vs)

let print_block (s : Stack.t) =
  let tsv = s.Stack.tsv and p = Stack.plane s 1 in
  Printf.sprintf "r=%h t_L=%h t_D=%h t_b=%h t_Si23=%h t_Si1=%h" tsv.Tsv.radius
    tsv.Tsv.liner_thickness p.Plane.t_ild p.Plane.t_bond p.Plane.t_substrate
    (Stack.plane s 0).Plane.t_substrate

let property_tests =
  [
    qtest ~count:200 ~print:print_block "single tile with one via degenerates to Model A"
      gen_block (fun stack ->
        let coeffs = Coefficients.paper_block in
        let chip = single_tile_chip ~coeffs stack in
        (* density putting exactly one via in the tile *)
        let d = Tsv.fill_area stack.Stack.tsv /. Units.um2 (100. *. 100.) in
        let qs = Stack.heat_inputs stack in
        let power = List.init 3 (fun j -> Power_map.uniform ~nx:1 ~ny:1 ~total:qs.(j)) in
        let r = Chip_model.solve chip (Chip_model.uniform_density chip d) power in
        let a = Model_a.solve ~coeffs stack in
        let near x y = Float.abs (x -. y) <= 1e-9 *. Float.abs x in
        (* the first-principles cluster of one via is the unit cell itself *)
        let naive = Cluster.solve_naive ~coeffs stack 1 in
        let same x y = Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y) in
        near (Model_a.max_rise a) r.Chip_model.max_rise
        && Array.for_all2 (fun t rises -> near t rises.(0)) a.Model_a.bulk r.Chip_model.rises
        && same naive.Model_a.t0 a.Model_a.t0
        && Array.for_all2 same naive.Model_a.bulk a.Model_a.bulk
        && Array.for_all2 same naive.Model_a.tsv a.Model_a.tsv
        && same naive.Model_a.tsv_heat a.Model_a.tsv_heat);
    qtest ~count:10 "uniform chip is symmetric under 90-degree rotation"
      (QCheck2.Gen.float_range 0.001 0.02)
      (fun d ->
        let chip =
          Chip_model.make ~width:(Units.mm 1.) ~height:(Units.mm 1.) ~nx:3 ~ny:3
            (Params.block ())
        in
        let power = List.init 3 (fun _ -> Power_map.uniform ~nx:3 ~ny:3 ~total:0.3) in
        let r = Chip_model.solve chip (Chip_model.uniform_density chip d) power in
        let t x y = Chip_model.rise_at r ~plane:2 ~x ~y in
        Float.abs (t 0 0 -. t 2 2) < 1e-9 && Float.abs (t 0 2 -. t 2 0) < 1e-9
        && Float.abs (t 1 0 -. t 0 1) < 1e-9);
    qtest ~count:10 "more uniform via density is never hotter"
      (QCheck2.Gen.float_range 0.001 0.01)
      (fun d ->
        let chip, power = alloc_fixture () in
        let lo = Chip_model.solve chip (Chip_model.uniform_density chip d) power in
        let hi = Chip_model.solve chip (Chip_model.uniform_density chip (2. *. d)) power in
        hi.Chip_model.max_rise <= lo.Chip_model.max_rise +. 1e-9);
  ]

let suite = ("chip", power_map_tests @ chip_tests @ allocation_tests @ property_tests)
