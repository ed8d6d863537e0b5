type options = {
  budget : float;
  step : float;
  max_density : float;
  max_iterations : int;
  candidates : int;
}

let default_options ~budget =
  if not (budget > 0.) then invalid_arg "Allocation.default_options: budget must be positive";
  { budget; step = 0.002; max_density = 0.2; max_iterations = 2000; candidates = 1 }

type outcome = {
  densities : Chip_model.densities;
  final : Chip_model.result;
  iterations : int;
  feasible : bool;
  metal_area : float;
  history : float array;
}

let metal_area chip ds =
  let tile =
    chip.Chip_model.width /. float_of_int chip.Chip_model.nx
    *. (chip.Chip_model.height /. float_of_int chip.Chip_model.ny)
  in
  Array.fold_left (fun acc d -> acc +. (d *. tile)) 0. ds

let validate_options o =
  if not (o.budget > 0.) then invalid_arg "Allocation.allocate: budget must be positive";
  if not (o.step > 0.) then invalid_arg "Allocation.allocate: step must be positive";
  if not (o.max_density > 0. && o.max_density < 1.) then
    invalid_arg "Allocation.allocate: max_density outside (0, 1)";
  if o.max_iterations < 1 then invalid_arg "Allocation.allocate: max_iterations must be >= 1";
  if o.candidates < 1 then invalid_arg "Allocation.allocate: candidates must be >= 1"

let allocate ?pool chip power o =
  validate_options o;
  let nx = chip.Chip_model.nx and ny = chip.Chip_model.ny in
  let ds = Array.make (nx * ny) 0. in
  let history = ref [] in
  let saturated i = ds.(i) >= o.max_density -. 1e-12 in
  (* hottest unsaturated tile of the hottest plane *)
  let hottest_unsaturated result =
    let top = result.Chip_model.rises.(Array.length result.Chip_model.rises - 1) in
    let best = ref None in
    Array.iteri
      (fun j r ->
        if not (saturated j) then
          match !best with Some (_, rb) when rb >= r -> () | _ -> best := Some (j, r))
      top;
    Option.map fst !best
  in
  (* the classic greedy target: the hottest tile's column, falling back
     to the hottest unsaturated tile when that column is saturated *)
  let greedy_target result =
    let _, hx, hy = result.Chip_model.hottest in
    let i = (hy * nx) + hx in
    if not (saturated i) then Some i else hottest_unsaturated result
  in
  (* look-ahead selection: score the [candidates] hottest unsaturated
     tiles — one trial solve each, evaluated over the pool — and commit
     the one whose grown column cools the chip most.  Ties (and the
     candidates = 1 case, which skips the trial solves entirely) resolve
     to the hottest tile, so the legacy greedy behaviour is the exact
     [candidates = 1] special case. *)
  let lookahead_target result =
    let top = result.Chip_model.rises.(Array.length result.Chip_model.rises - 1) in
    let ranked =
      Array.to_list (Array.mapi (fun j r -> (j, r)) top)
      |> List.filter (fun (j, _) -> not (saturated j))
      |> List.sort (fun (i, a) (j, b) ->
             match compare b a with 0 -> compare i j | c -> c)
    in
    match ranked with
    | [] -> None
    | [ (j, _) ] -> Some j
    | ranked ->
      let cands =
        Array.of_list (List.map fst (List.filteri (fun k _ -> k < o.candidates) ranked))
      in
      let score j =
        let trial = Array.copy ds in
        trial.(j) <- Float.min o.max_density (trial.(j) +. o.step);
        (Chip_model.solve chip trial power).Chip_model.max_rise
      in
      let scores =
        Ttsv_parallel.Pool.map_array
          (Option.value pool ~default:Ttsv_parallel.Pool.seq)
          score cands
      in
      (* argmin in candidate (hotness) order: ties keep the hotter tile *)
      let best = ref 0 in
      Array.iteri (fun k s -> if s < scores.(!best) then best := k) scores;
      Some cands.(!best)
  in
  let rec loop iter result =
    history := result.Chip_model.max_rise :: !history;
    if result.Chip_model.max_rise <= o.budget then (iter, result, true)
    else if iter >= o.max_iterations then (iter, result, false)
    else begin
      let target =
        if o.candidates <= 1 then greedy_target result else lookahead_target result
      in
      match target with
      | None -> (iter, result, false) (* every tile saturated *)
      | Some i ->
        ds.(i) <- Float.min o.max_density (ds.(i) +. o.step);
        loop (iter + 1) (Chip_model.solve chip ds power)
    end
  in
  let iterations, final, feasible = loop 0 (Chip_model.solve chip ds power) in
  {
    densities = ds;
    final;
    iterations;
    feasible;
    metal_area = metal_area chip ds;
    history = Array.of_list (List.rev !history);
  }

type scenario = { chip : Chip_model.t; bare : Chip_model.result; allocation : outcome option }

let hotspot_scenario ?pool ~size_mm ~grid ~power ~hotspot ?budget ~candidates
    stack =
  let side = Ttsv_physics.Units.mm size_mm in
  let chip = Chip_model.make ~width:side ~height:side ~nx:grid ~ny:grid stack in
  let base = Power_map.uniform ~nx:grid ~ny:grid ~total:power in
  let h = 2 * grid / 3 in
  let top = Power_map.add_hotspot base ~x0:h ~y0:h ~x1:(h + 1) ~y1:(h + 1) ~watts:hotspot in
  let nplanes = Ttsv_geometry.Stack.num_planes stack in
  let maps = List.init nplanes (fun i -> if i = nplanes - 1 then top else base) in
  let bare = Chip_model.solve chip (Chip_model.uniform_density chip 0.) maps in
  let allocation =
    Option.map
      (fun budget ->
        allocate ?pool chip maps
          { (default_options ~budget) with step = 0.01; max_density = 0.15; candidates })
      budget
  in
  { chip; bare; allocation }

let pp_densities chip ds ppf =
  let nx = chip.Chip_model.nx in
  let peak = Array.fold_left Float.max 1e-30 ds in
  Format.fprintf ppf "@[<v>";
  Array.iteri
    (fun i d ->
      if i > 0 && i mod nx = 0 then Format.pp_print_cut ppf ();
      let c =
        if d <= 0. then '.'
        else Char.chr (Char.code '1' + Stdlib.min 8 (int_of_float (d /. peak *. 8.999)))
      in
      Format.pp_print_char ppf c)
    ds;
  Format.fprintf ppf "@]"
