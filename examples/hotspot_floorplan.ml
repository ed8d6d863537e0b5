(* Full-chip extension: a 4 mm x 4 mm three-plane stack with a processor
   hotspot, analyzed with the tile-level compact model, then cooled by the
   greedy TTSV allocator until it meets a temperature budget.

     dune exec examples/hotspot_floorplan.exe *)

module Units = Ttsv_physics.Units
module Plane = Ttsv_geometry.Plane
module Tsv = Ttsv_geometry.Tsv
module Stack = Ttsv_geometry.Stack
module Power_map = Ttsv_chip.Power_map
module Chip_model = Ttsv_chip.Chip_model
module Allocation = Ttsv_chip.Allocation

let nx = 12
let ny = 12

let () =
  let tsv =
    Tsv.make ~radius:(Units.um 10.) ~liner_thickness:(Units.um 1.) ~extension:(Units.um 1.) ()
  in
  let plane ~first =
    Plane.make
      ~t_substrate:(Units.um (if first then 300. else 50.))
      ~t_ild:(Units.um 6.)
      ~t_bond:(Units.um (if first then 0. else 2.))
      ()
  in
  (* the unit cell every tile repeats; the chip uses its planes and TTSV *)
  let cell =
    Stack.make ~footprint:(Units.um2 (100. *. 100.))
      ~planes:[ plane ~first:true; plane ~first:false; plane ~first:false ]
      ~tsv ()
  in
  let chip = Chip_model.make ~width:(Units.mm 4.) ~height:(Units.mm 4.) ~nx ~ny cell in

  (* floorplan: 6 W of background logic per plane; an 8 W core block in the
     top plane's north-east corner, and a 4 W memory controller mid-west *)
  let background = Power_map.uniform ~nx ~ny ~total:6. in
  let top =
    Power_map.add_hotspot
      (Power_map.add_hotspot background ~x0:8 ~y0:8 ~x1:10 ~y1:10 ~watts:8.)
      ~x0:1 ~y0:5 ~x1:2 ~y1:7 ~watts:4.
  in
  let power = [ background; background; top ] in

  let bare = Chip_model.solve chip (Chip_model.uniform_density chip 0.) power in
  Format.printf "without TTSVs: max dT = %.2f K at plane %d tile (%d,%d)@.@."
    bare.Chip_model.max_rise
    (let p, _, _ = bare.Chip_model.hottest in
     p + 1)
    (let _, x, _ = bare.Chip_model.hottest in
     x)
    (let _, _, y = bare.Chip_model.hottest in
     y);
  Format.printf "top-plane temperature field (0-9 scaled to max):@.%t@.@."
    (Chip_model.pp_plane bare ~plane:2);

  let budget = bare.Chip_model.max_rise *. 0.75 in
  Format.printf "allocating TTSVs for a budget of %.2f K ...@.@." budget;
  let opts = Allocation.default_options ~budget in
  let out = Allocation.allocate chip power { opts with step = 0.01; max_density = 0.15 } in

  Format.printf "feasible: %b after %d iterations@." out.Allocation.feasible
    out.Allocation.iterations;
  Format.printf "max dT: %.2f K (budget %.2f K)@." out.Allocation.final.Chip_model.max_rise
    budget;
  Format.printf "via metal spent: %.4f mm^2 (%.2f%% of the chip)@.@."
    (out.Allocation.metal_area *. 1e6)
    (100. *. out.Allocation.metal_area /. (Units.mm 4. *. Units.mm 4.));
  Format.printf "TTSV density map (vias go where the heat is):@.%t@.@."
    (Allocation.pp_densities chip out.Allocation.densities);
  Format.printf "top-plane field after allocation:@.%t@."
    (Chip_model.pp_plane out.Allocation.final ~plane:2)
