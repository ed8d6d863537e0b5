module Stack = Ttsv_geometry.Stack
module Plane = Ttsv_geometry.Plane
module Tsv = Ttsv_geometry.Tsv
module Material = Ttsv_physics.Material
module Coefficients = Ttsv_core.Coefficients
module Resistances = Ttsv_core.Resistances
module Model_a = Ttsv_core.Model_a
module Circuit = Ttsv_network.Circuit

type t = {
  width : float;
  height : float;
  nx : int;
  ny : int;
  stack : Stack.t;
  coeffs : Coefficients.t;
}

let make ?(coeffs = Coefficients.unity) ~width ~height ~nx ~ny stack =
  if not (width > 0.) || not (height > 0.) then
    invalid_arg "Chip_model.make: extent must be positive";
  if nx < 1 || ny < 1 then invalid_arg "Chip_model.make: grid must be positive";
  { width; height; nx; ny; stack; coeffs }

type densities = float array

let tile_area chip = chip.width /. float_of_int chip.nx *. (chip.height /. float_of_int chip.ny)

let uniform_density chip d =
  if d < 0. || d >= 1. then invalid_arg "Chip_model.uniform_density: density outside [0, 1)";
  Array.make (chip.nx * chip.ny) d

type result = {
  grid_nx : int;
  rises : float array array;
  max_rise : float;
  hottest : int * int * int;
  sink_heat : float;
}

let solve chip ds power =
  let nx = chip.nx and ny = chip.ny in
  let stack = chip.stack and coeffs = chip.coeffs in
  let nplanes = Stack.num_planes stack in
  if Array.length ds <> nx * ny then invalid_arg "Chip_model.solve: densities length mismatch";
  Array.iter
    (fun d -> if d < 0. || d >= 1. then invalid_arg "Chip_model.solve: density outside [0, 1)")
    ds;
  if List.length power <> nplanes then
    invalid_arg "Chip_model.solve: one power map per plane required";
  List.iter
    (fun m ->
      if Power_map.nx m <> nx || Power_map.ny m <> ny then
        invalid_arg "Chip_model.solve: power-map grid mismatch")
    power;
  let at = tile_area chip in
  let fill = Tsv.fill_area stack.Stack.tsv in
  let k_of (m : Material.t) = m.Material.conductivity in
  let c = Circuit.create () in
  let ground = Circuit.ground c in
  let tile x y = (y * nx) + x in
  (* nodes *)
  let t0 =
    Array.init (nx * ny) (fun i -> Circuit.add_node c (Printf.sprintf "t0[%d]" i))
  in
  let bulk =
    Array.init nplanes (fun j ->
        Array.init (nx * ny) (fun i -> Circuit.add_node c (Printf.sprintf "b%d[%d]" j i)))
  in
  let via =
    Array.init (Stdlib.max 0 (nplanes - 1)) (fun j ->
        Array.init (nx * ny) (fun i ->
            if ds.(i) > 0. then Some (Circuit.add_node c (Printf.sprintf "v%d[%d]" j i))
            else None))
  in
  (* the sink path through the thick first substrate, the same for every
     tile *)
  let sink_r = Resistances.sink ~coeffs stack ~footprint:at in
  (* per-tile vertical ladders: the unit cell's eq. 1-6 walk over the
     tile, its via count entering as parallel conductance; a tile without
     vias walks infinite filler and liner resistances, left unstamped *)
  for y = 0 to ny - 1 do
    for x = 0 to nx - 1 do
      let i = tile x y in
      let vias = ds.(i) *. at /. fill in
      let rs =
        try Resistances.cell ~coeffs stack ~footprint:at ~vias
        with Invalid_argument _ ->
          invalid_arg (Printf.sprintf "Chip_model.solve: vias exceed tile (%d,%d) area" x y)
      in
      let node k =
        if k < 0 then ground
        else if k = 0 then t0.(i)
        else if k land 1 = 1 then bulk.(k / 2).(i)
        else Option.get via.((k / 2) - 1).(i)
      in
      Model_a.walk rs ~resistor:(fun a b r ->
          if Float.is_finite r then Circuit.add_resistor c (node a) (node b) r)
    done
  done;
  (* lateral spreading within each silicon layer *)
  let dx = chip.width /. float_of_int nx and dy = chip.height /. float_of_int ny in
  let lateral nodes thickness k =
    if thickness > 0. then begin
      for y = 0 to ny - 1 do
        for x = 0 to nx - 2 do
          Circuit.add_resistor c nodes.(tile x y) nodes.(tile (x + 1) y)
            (dx /. (k *. thickness *. dy))
        done
      done;
      for y = 0 to ny - 2 do
        for x = 0 to nx - 1 do
          Circuit.add_resistor c nodes.(tile x y) nodes.(tile x (y + 1))
            (dy /. (k *. thickness *. dx))
        done
      done
    end
  in
  if nx > 1 || ny > 1 then begin
    lateral t0 (Resistances.sink_span stack) (k_of (Stack.plane stack 0).Plane.substrate);
    Array.iteri
      (fun j (p : Plane.t) ->
        lateral bulk.(j) (Resistances.substrate_span stack j) (k_of p.Plane.substrate))
      stack.Stack.planes
  end;
  (* heat injection *)
  List.iteri
    (fun j m ->
      for y = 0 to ny - 1 do
        for x = 0 to nx - 1 do
          let w = Power_map.get m x y in
          if w > 0. then Circuit.add_heat_source c bulk.(j).(tile x y) w
        done
      done)
    power;
  let sol = Circuit.solve c in
  let rises =
    Array.init nplanes (fun j -> Array.map (Circuit.temperature sol) bulk.(j))
  in
  let max_rise = ref 0. and hottest = ref (0, 0, 0) in
  Array.iteri
    (fun j plane_rises ->
      Array.iteri
        (fun i r ->
          if r > !max_rise then begin
            max_rise := r;
            hottest := (j, i mod nx, i / nx)
          end)
        plane_rises)
    rises;
  let sink_heat =
    Array.fold_left (fun acc n -> acc +. (Circuit.temperature sol n /. sink_r)) 0. t0
  in
  { grid_nx = nx; rises; max_rise = !max_rise; hottest = !hottest; sink_heat }

let rise_at result ~plane ~x ~y = result.rises.(plane).((y * result.grid_nx) + x)

let pp_plane result ~plane ppf =
  let row = result.rises.(plane) in
  let peak = Float.max 1e-30 result.max_rise in
  Format.fprintf ppf "@[<v>";
  Array.iteri
    (fun i r ->
      if i > 0 && i mod result.grid_nx = 0 then Format.pp_print_cut ppf ();
      Format.pp_print_char ppf
        (Char.chr (Char.code '0' + Stdlib.min 9 (int_of_float (r /. peak *. 9.999)))))
    row;
  Format.fprintf ppf "@]"
