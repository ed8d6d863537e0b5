(* Tests for units and materials. *)

module Units = Ttsv_physics.Units
module Material = Ttsv_physics.Material
module Materials = Ttsv_physics.Materials
open Helpers

let units_tests =
  [
    test "um roundtrip" (fun () -> close ~tol:1e-12 "um" 5. (Units.to_um (Units.um 5.)));
    test "mm roundtrip" (fun () -> close ~tol:1e-9 "mm" 2500. (Units.to_um (Units.mm 2.5)));
    test "areas" (fun () -> close ~tol:1e-12 "um2" 1e-12 (Units.um2 1.));
    test "power densities" (fun () -> close "w/mm3" 7e11 (Units.w_per_mm3 700.));
    test "temperature conversions" (fun () ->
        close ~tol:1e-12 "k of c" 300.15 (Units.kelvin_of_celsius 27.));
  ]

let material_tests =
  [
    test "paper conductivities" (fun () ->
        close "si" 150. Materials.silicon.Material.conductivity;
        close "sio2" 1.4 Materials.silicon_dioxide.Material.conductivity;
        close "polyimide" 0.15 Materials.polyimide.Material.conductivity;
        close "cu" 400. Materials.copper.Material.conductivity);
    test "make rejects nonpositive k" (fun () ->
        check_raises_invalid "k" (fun () ->
            ignore (Material.make ~name:"bad" ~conductivity:0. ())));
    test "k_at constant material" (fun () ->
        close "const" 400. (Material.k_at Materials.copper 400.));
    test "k_at with law decreases with temperature" (fun () ->
        let k300 = Material.k_at Materials.silicon_k_of_t 300. in
        let k400 = Material.k_at Materials.silicon_k_of_t 400. in
        Alcotest.(check bool) "monotone" true (k400 < k300);
        close ~tol:1e-9 "at 300K" 154. k300);
    test "with_conductivity" (fun () ->
        let m = Material.with_conductivity Materials.silicon_dioxide 2.0 in
        close "updated" 2.0 m.Material.conductivity;
        close "original untouched" 1.4 Materials.silicon_dioxide.Material.conductivity);
    test "all materials are distinct by name" (fun () ->
        let names = List.map (fun (m : Material.t) -> m.Material.name) Materials.all in
        Alcotest.(check int) "unique" (List.length names)
          (List.length (List.sort_uniq compare names)));
  ]

let suite = ("physics", units_tests @ material_tests)
