module Stack = Ttsv_geometry.Stack
module Tsv = Ttsv_geometry.Tsv
module Material = Ttsv_physics.Material

type t = { grid : Grid3.t; conductivity : float array; source : float array }

let make ~grid ~conductivity ~source =
  let n = Grid3.cells grid in
  if Array.length conductivity <> n then
    invalid_arg "Problem3.make: conductivity length mismatch";
  if Array.length source <> n then invalid_arg "Problem3.make: source length mismatch";
  Array.iter
    (fun k ->
      if k <= 0. || not (Float.is_finite k) then
        invalid_arg "Problem3.make: conductivities must be positive and finite")
    conductivity;
  { grid; conductivity = Array.copy conductivity; source = Array.copy source }

let total_source p = Array.fold_left ( +. ) 0. p.source

(* Lateral faces: coarse background spacing away from the vias and fine
   spacing (about one liner thickness) in a band around every via, so the
   staircase representation resolves the liner ring.  Material interfaces
   at +/- r and +/- (r + t_L) along the axes land exactly on faces. *)
let lateral_faces side n vias r_in r_out =
  let fine = Float.max ((r_out -. r_in) /. 1.5) (r_in /. 8.) in
  let pad = 2. *. (r_out -. r_in) in
  let coarse = side /. float_of_int n in
  let eps = side *. 1e-9 in
  (* merge per-via refinement bands *)
  let bands =
    List.sort compare
      (List.map
         (fun v -> (Float.max 0. (v -. r_out -. pad), Float.min side (v +. r_out +. pad)))
         vias)
  in
  let rec merge = function
    | (a1, b1) :: (a2, b2) :: rest when a2 <= b1 +. coarse -> merge ((a1, Float.max b1 b2) :: rest)
    | band :: rest -> band :: merge rest
    | [] -> []
  in
  let bands = merge bands in
  let subdivide a b h acc =
    if b <= a +. eps then acc
    else begin
      let cells = Stdlib.max 1 (int_of_float (Float.ceil ((b -. a) /. h))) in
      let step = (b -. a) /. float_of_int cells in
      let out = ref acc in
      for i = 1 to cells do
        out := (a +. (step *. float_of_int i)) :: !out
      done;
      !out
    end
  in
  (* walk the axis: coarse gaps between bands, fine inside them, and exact
     faces at each via's material radii *)
  let faces = ref [] and pos = ref 0. in
  List.iter
    (fun (a, b) ->
      faces := subdivide !pos a coarse !faces;
      faces := subdivide (Float.max !pos a) b fine !faces;
      pos := Float.max !pos b)
    bands;
  faces := subdivide !pos side coarse !faces;
  let exact =
    List.concat_map (fun v -> [ v -. r_out; v -. r_in; v; v +. r_in; v +. r_out ]) vias
  in
  let all =
    List.filter (fun x -> x > eps && x < side -. eps) (exact @ !faces)
    |> List.sort_uniq compare
  in
  let rec dedup = function
    | a :: b :: rest ->
      if b -. a < fine /. 4. then dedup (a :: rest) else a :: dedup (b :: rest)
    | rest -> rest
  in
  Array.of_list ((0. :: dedup all) @ [ side ])

let grid_centers_for_cluster stack n =
  if n < 1 then invalid_arg "Problem3.grid_centers_for_cluster: n must be >= 1";
  let m = int_of_float (Float.round (sqrt (float_of_int n))) in
  if m * m <> n then
    invalid_arg "Problem3.grid_centers_for_cluster: n must be a perfect square";
  let side = sqrt stack.Stack.footprint in
  List.concat
    (List.init m (fun i ->
         List.init m (fun j ->
             ( side *. (float_of_int i +. 0.5) /. float_of_int m,
               side *. (float_of_int j +. 0.5) /. float_of_int m ))))

let of_stack ?(resolution = 1) ?via_centers ?pool stack =
  if resolution < 1 then invalid_arg "Problem3.of_stack: resolution must be >= 1";
  let pool = Option.value pool ~default:Ttsv_parallel.Pool.seq in
  let side = sqrt stack.Stack.footprint in
  let tsv = stack.Stack.tsv in
  let r_in = tsv.Tsv.radius and r_out = Tsv.outer_radius tsv in
  let centers =
    match via_centers with Some cs -> cs | None -> [ (side /. 2., side /. 2.) ]
  in
  List.iter
    (fun (x, y) ->
      if x -. r_out < 0. || x +. r_out > side || y -. r_out < 0. || y +. r_out > side then
        invalid_arg "Problem3.of_stack: via (incl. liner) outside the cell")
    centers;
  let n_lat = 24 * resolution in
  let layers = Layers.of_stack ~resolution stack in
  let xs_vias = List.map fst centers and ys_vias = List.map snd centers in
  let grid =
    Grid3.make
      ~x_faces:(lateral_faces side n_lat xs_vias r_in r_out)
      ~y_faces:(lateral_faces side n_lat ys_vias r_in r_out)
      ~z_faces:(Layers.z_faces layers)
  in
  let nx = Grid3.nx grid and ny = Grid3.ny grid and nz = Grid3.nz grid in
  let row_layer = Layers.row_layers layers in
  assert (Array.length row_layer = nz);
  let conductivity = Array.make (nx * ny * nz) 0. in
  let source = Array.make (nx * ny * nz) 0. in
  (* distance from a point to the nearest via axis *)
  let nearest_via_distance xc yc =
    List.fold_left
      (fun acc (vx, vy) ->
        let d = Float.hypot (xc -. vx) (yc -. vy) in
        Float.min acc d)
      Float.infinity centers
  in
  (* Staircase centre sampling: the graded faces keep the lateral spacing
     near each via at about one liner thickness, so the thin ring is
     resolved without anisotropy-corrupting conductivity blending. *)
  let cell_conductivity l ix iy =
    let k_of (m : Material.t) = m.Material.conductivity in
    if not l.Layers.tsv then k_of l.Layers.material
    else begin
      let d = nearest_via_distance (Grid3.x_center grid ix) (Grid3.y_center grid iy) in
      if d < r_in then k_of tsv.Tsv.filler
      else if d < r_out then k_of tsv.Tsv.liner
      else k_of l.Layers.material
    end
  in
  (* per-layer raw deposited power, for normalization to the analytic
     wattage (see the interface) *)
  let silicon_area = Stack.silicon_area stack in
  let plane = nx * ny in
  let fill_chunk = 1024 in
  let row0 = ref 0 in
  List.iter
    (fun (l : Layers.t) ->
      let rows = l.Layers.ncells in
      (* a layer occupies the contiguous index range [base, base + m):
         fill it per-chunk over the pool, accumulating the raw deposited
         power with a chunk-deterministic reduction so pooled and
         sequential builds agree bitwise *)
      let base = !row0 * plane in
      let m = rows * plane in
      let fill j =
        let idx = base + j in
        let ix = idx mod nx and iy = idx / nx mod ny and iz = idx / plane in
        let d = nearest_via_distance (Grid3.x_center grid ix) (Grid3.y_center grid iy) in
        conductivity.(idx) <- cell_conductivity l ix iy;
        let heated = if l.Layers.annular_source then d > r_out else true in
        if heated && l.Layers.source_density > 0. then begin
          let w = l.Layers.source_density *. Grid3.volume grid ix iy iz in
          source.(idx) <- w;
          w
        end
        else 0.
      in
      let raw =
        Ttsv_parallel.Pool.map_reduce ~chunk:fill_chunk pool ~n:m
          ~map:(fun ~lo ~hi ->
            let acc = ref 0. in
            for j = lo to hi - 1 do
              acc := !acc +. fill j
            done;
            !acc)
          ~reduce:( +. ) ~init:0.
      in
      (* normalize the slab to the analytic wattage *)
      if l.Layers.source_density > 0. then begin
        let area =
          if l.Layers.annular_source then silicon_area else stack.Stack.footprint
        in
        let target = l.Layers.source_density *. l.Layers.thickness *. area in
        if raw <= 0. then invalid_arg "Problem3.of_stack: a heated slab received no cells";
        let scale = target /. raw in
        Ttsv_parallel.Pool.for_chunks ~chunk:fill_chunk pool m (fun ~lo ~hi ->
            for j = lo to hi - 1 do
              source.(base + j) <- source.(base + j) *. scale
            done)
      end;
      row0 := !row0 + rows)
    layers;
  { grid; conductivity; source }
