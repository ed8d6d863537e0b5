(* Tests for TSV, Plane and Stack geometry. *)

module Units = Ttsv_physics.Units
module Tsv = Ttsv_geometry.Tsv
module Plane = Ttsv_geometry.Plane
module Stack = Ttsv_geometry.Stack
module Vec = Ttsv_numerics.Vec
open Helpers

let tsv_tests =
  [
    test "areas hand computed" (fun () ->
        let t = Tsv.make ~radius:(Units.um 10.) ~liner_thickness:(Units.um 1.) () in
        close_rel "fill" (Float.pi *. 1e-10) (Tsv.fill_area t);
        close_rel "occupied" (Float.pi *. 1.21e-10) (Tsv.occupied_area t);
        close_rel "outer" (Units.um 11.) (Tsv.outer_radius t));
    test "divide preserves total metal area" (fun () ->
        let t = Tsv.make ~radius:(Units.um 10.) ~liner_thickness:(Units.um 1.) () in
        List.iter
          (fun n ->
            let thin = Tsv.divide t n in
            close_rel "metal area"
              (Tsv.fill_area t)
              (float_of_int n *. Tsv.fill_area thin))
          [ 1; 2; 4; 9; 16 ]);
    test "divide increases total liner surface" (fun () ->
        (* perimeter grows like sqrt n at constant metal area *)
        let t = Tsv.make ~radius:(Units.um 10.) ~liner_thickness:(Units.um 1.) () in
        let perimeter n = float_of_int n *. 2. *. Float.pi *. (Tsv.divide t n).Tsv.radius in
        Alcotest.(check bool) "grows" true (perimeter 4 > perimeter 1);
        close_rel "sqrt law" (2. *. perimeter 1) (perimeter 4));
    test "validation" (fun () ->
        check_raises_invalid "radius" (fun () ->
            ignore (Tsv.make ~radius:0. ~liner_thickness:1e-6 ()));
        check_raises_invalid "liner" (fun () ->
            ignore (Tsv.make ~radius:1e-6 ~liner_thickness:0. ()));
        check_raises_invalid "ext" (fun () ->
            ignore (Tsv.make ~radius:1e-6 ~liner_thickness:1e-6 ~extension:(-1.) ()));
        check_raises_invalid "divide" (fun () ->
            ignore (Tsv.divide (Tsv.make ~radius:1e-6 ~liner_thickness:1e-6 ()) 0)));
    test "NaN dimensions are rejected" (fun () ->
        (* a [x <= 0.] guard lets NaN through to a NaN temperature *)
        check_raises_invalid "radius" (fun () ->
            ignore (Tsv.make ~radius:Float.nan ~liner_thickness:1e-6 ()));
        let t = Tsv.make ~radius:1e-6 ~liner_thickness:1e-6 () in
        check_raises_invalid "with_radius" (fun () -> ignore (Tsv.with_radius t Float.nan));
        check_raises_invalid "with_liner_thickness" (fun () ->
            ignore (Tsv.with_liner_thickness t Float.nan)));
  ]

let plane_tests =
  [
    test "height" (fun () ->
        let p =
          Plane.make ~t_substrate:(Units.um 50.) ~t_ild:(Units.um 5.) ~t_bond:(Units.um 2.) ()
        in
        close_rel "h" (Units.um 57.) (Plane.height p));
    test "heat input arithmetic" (fun () ->
        let p =
          Plane.make ~t_substrate:(Units.um 50.) ~t_ild:(Units.um 4.) ~t_bond:0.
            ~t_device:(Units.um 1.)
            ~device_power_density:(Units.w_per_mm3 700.)
            ~ild_power_density:(Units.w_per_mm3 70.) ()
        in
        (* over 0.01 mm^2: 700e9 * 1e-6 * 1e-8 + 70e9 * 4e-6 * 1e-8 = 7e-3 + 2.8e-3 *)
        close_rel "q" 9.8e-3 (Plane.heat_input p ~device_area:1e-8 ~ild_area:1e-8));
    test "device layer cannot exceed substrate" (fun () ->
        check_raises_invalid "device" (fun () ->
            ignore
              (Plane.make ~t_substrate:(Units.um 1.) ~t_ild:(Units.um 1.) ~t_bond:0.
                 ~t_device:(Units.um 2.) ())));
    test "with_power overrides selectively" (fun () ->
        let p = Plane.make ~t_substrate:1e-4 ~t_ild:1e-6 ~t_bond:0. () in
        let p' = Plane.with_power ~device_power_density:5. p in
        close "dev" 5. p'.Plane.device_power_density;
        close "ild kept" 0. p'.Plane.ild_power_density);
  ]

let block () = Ttsv_core.Params.block ()

let stack_tests =
  [
    test "paper block has three planes" (fun () ->
        Alcotest.(check int) "planes" 3 (Stack.num_planes (block ())));
    test "silicon area correction (eq. 7)" (fun () ->
        let s = block () in
        let expected = 1e-8 -. (Float.pi *. ((Units.um 6.) ** 2.)) in
        close_rel "A" expected (Stack.silicon_area s));
    test "tsv_length spans ext+ild1+bond2+si2+ild2+bond3+si3" (fun () ->
        let s = block () in
        (* 1 + 4 + 1 + 45 + 4 + 1 + 45 um: the TTSV segments Model A
           stamps, one per plane, cover exactly that span *)
        let length =
          List.fold_left ( +. ) 0.
            (List.init (Stack.num_planes s) (Ttsv_core.Resistances.plane_span s))
        in
        close_rel "len" (Units.um 101.) length);
    test "heat inputs: top plane ILD heats over full footprint" (fun () ->
        let s = block () in
        let q = Stack.heat_inputs s in
        Alcotest.(check bool) "top plane slightly larger" true (q.(2) > q.(0));
        close_rel "q1=q2" q.(0) q.(1));
    test "total heat equals sum" (fun () ->
        let s = block () in
        close_rel "total" (Vec.sum (Stack.heat_inputs s)) (Stack.total_heat s));
    test "first plane must have no bond" (fun () ->
        let tsv = Tsv.make ~radius:1e-6 ~liner_thickness:1e-6 () in
        let p = Plane.make ~t_substrate:1e-4 ~t_ild:1e-6 ~t_bond:1e-6 () in
        check_raises_invalid "bond" (fun () ->
            ignore (Stack.make ~footprint:1e-8 ~planes:[ p ] ~tsv ())));
    test "upper planes need a bond" (fun () ->
        let tsv = Tsv.make ~radius:1e-6 ~liner_thickness:1e-6 () in
        let p0 = Plane.make ~t_substrate:1e-4 ~t_ild:1e-6 ~t_bond:0. () in
        check_raises_invalid "no bond above" (fun () ->
            ignore (Stack.make ~footprint:1e-8 ~planes:[ p0; p0 ] ~tsv ())));
    test "TSV must fit the footprint" (fun () ->
        let tsv = Tsv.make ~radius:(Units.um 60.) ~liner_thickness:(Units.um 1.) () in
        let p0 = Plane.make ~t_substrate:1e-4 ~t_ild:1e-6 ~t_bond:0. () in
        check_raises_invalid "fit" (fun () ->
            ignore (Stack.make ~footprint:(Units.um2 (100. *. 100.)) ~planes:[ p0 ] ~tsv ())));
    test "extension must stay inside the first substrate" (fun () ->
        let tsv = Tsv.make ~radius:1e-6 ~liner_thickness:1e-6 ~extension:(Units.um 600.) () in
        let p0 = Plane.make ~t_substrate:(Units.um 500.) ~t_ild:1e-6 ~t_bond:0. () in
        check_raises_invalid "ext" (fun () ->
            ignore (Stack.make ~footprint:1e-8 ~planes:[ p0 ] ~tsv ())));
    test "cells_for_density sizes the paper's case study" (fun () ->
        let tsv = Tsv.make ~radius:(Units.um 30.) ~liner_thickness:(Units.um 1.) () in
        let count, cell =
          Stack.cells_for_density ~footprint_total:(Units.mm 10. *. Units.mm 10.) ~density:0.005
            ~tsv
        in
        (* 0.5% of 100 mm^2 is 0.5 mm^2 of metal; each via is pi*(30um)^2 *)
        Alcotest.(check int) "count" 177 count;
        close_rel "tiling" 1e-4 (float_of_int count *. cell));
    test "cells_for_density validates" (fun () ->
        let tsv = Tsv.make ~radius:1e-6 ~liner_thickness:1e-6 () in
        check_raises_invalid "density" (fun () ->
            ignore (Stack.cells_for_density ~footprint_total:1. ~density:1.5 ~tsv)));
    test "map_planes rescales" (fun () ->
        let s = block () in
        let s' =
          Stack.map_planes s (fun i p ->
              if i = 0 then p else Plane.with_t_substrate p (Units.um 30.))
        in
        close_rel "t2" (Units.um 30.) (Stack.plane s' 1).Plane.t_substrate);
  ]

let property_tests =
  [
    qtest ~count:40 "silicon area positive and below footprint" gen_stack (fun s ->
        let a = Stack.silicon_area s in
        a > 0. && a < s.Stack.footprint);
    qtest ~count:40 "heat inputs are positive" gen_stack (fun s ->
        Array.for_all (fun q -> q > 0.) (Stack.heat_inputs s));
    qtest ~count:40 "total height is the sum of plane heights" gen_stack (fun s ->
        let sum = ref 0. in
        for i = 0 to Stack.num_planes s - 1 do
          sum := !sum +. Plane.height (Stack.plane s i)
        done;
        Float.abs (!sum -. Stack.total_height s) < 1e-12);
  ]

let suite = ("geometry", tsv_tests @ plane_tests @ stack_tests @ property_tests)
