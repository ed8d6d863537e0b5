module Stack = Ttsv_geometry.Stack
module Plane = Ttsv_geometry.Plane
module Tsv = Ttsv_geometry.Tsv
module Material = Ttsv_physics.Material
module Circuit = Ttsv_network.Circuit
module Dense = Ttsv_numerics.Dense
module Sparse = Ttsv_numerics.Sparse
module Vec = Ttsv_numerics.Vec

type result = {
  times : float array;
  max_rise : float array;
  bulk : float array array;
  steady : Model_a.result;
}

(* Lumped nodal heat capacities, J/K: each node absorbs the thermal mass of
   the layers its resistances span. *)
let capacities stack (net : Model_a.network) n_nodes =
  let caps = Array.make n_nodes 0. in
  let put node c = caps.(Circuit.node_index net.Model_a.circuit node) <- c in
  let n = Stack.num_planes stack in
  let tsv = stack.Stack.tsv in
  let area = Stack.silicon_area stack in
  let rc (m : Material.t) = m.Material.volumetric_heat_capacity in
  put net.Model_a.t0_node
    (stack.Stack.footprint *. Resistances.sink_span stack
    *. rc (Stack.plane stack 0).Plane.substrate);
  for i = 0 to n - 1 do
    let p = Stack.plane stack i in
    let vol_rc =
      area
      *. ((p.Plane.t_ild *. rc p.Plane.ild)
         +. (Resistances.substrate_span stack i *. rc p.Plane.substrate)
         +. (p.Plane.t_bond *. rc p.Plane.bond))
    in
    put net.Model_a.bulk_nodes.(i) vol_rc;
    if i < n - 1 then begin
      let span = Resistances.plane_span stack i in
      put net.Model_a.tsv_nodes.(i) (Tsv.fill_area tsv *. span *. rc tsv.Tsv.filler)
    end
  done;
  caps

let solve ?coeffs ?(power = fun _ -> 1.) stack ~dt ~duration =
  if not (dt > 0.) then invalid_arg "Transient.solve: dt must be positive";
  if not (duration > 0.) then invalid_arg "Transient.solve: duration must be positive";
  (* one step past a shorter duration would integrate far beyond it *)
  if dt > duration then invalid_arg "Transient.solve: dt exceeds duration";
  let rs = Resistances.of_stack ?coeffs stack in
  let qs = Stack.heat_inputs stack in
  let steady = Model_a.solve_triples rs qs in
  let net = Model_a.build_network rs qs in
  let g, q0 = Circuit.assembled net.Model_a.circuit in
  let n = Sparse.rows g in
  let caps = capacities stack net n in
  let system = Sparse.to_dense g in
  for i = 0 to n - 1 do
    Dense.add_to system i i (caps.(i) /. dt)
  done;
  let lu = Dense.lu_factor system in
  let steps = int_of_float (Float.ceil (duration /. dt)) in
  let nplanes = Stack.num_planes stack in
  let bulk_idx =
    Array.map (Circuit.node_index net.Model_a.circuit) net.Model_a.bulk_nodes
  in
  let t = ref (Array.make n 0.) in
  let times = Array.make (steps + 1) 0. in
  let maxes = Array.make (steps + 1) 0. in
  let bulk = Array.make_matrix (steps + 1) nplanes 0. in
  for m = 1 to steps do
    let time = float_of_int m *. dt in
    let scale = power time in
    let rhs = Array.init n (fun i -> (q0.(i) *. scale) +. (caps.(i) /. dt *. !t.(i))) in
    t := Dense.lu_solve lu rhs;
    times.(m) <- time;
    maxes.(m) <- Vec.fold_max 0. !t;
    for p = 0 to nplanes - 1 do
      bulk.(m).(p) <- !t.(bulk_idx.(p))
    done
  done;
  { times; max_rise = maxes; bulk; steady }

let time_constant r =
  let target = (1. -. exp (-1.)) *. Model_a.max_rise r.steady in
  let n = Array.length r.times in
  let rec find i =
    if i >= n then None
    else if r.max_rise.(i) >= target then
      if i = 0 then Some r.times.(0)
      else begin
        (* linear interpolation inside the step *)
        let t0 = r.times.(i - 1) and t1 = r.times.(i) in
        let y0 = r.max_rise.(i - 1) and y1 = r.max_rise.(i) in
        Some (t0 +. ((target -. y0) /. (y1 -. y0) *. (t1 -. t0)))
      end
    else find (i + 1)
  in
  find 0

let settled ?(tol = 0.01) r =
  let steady = Model_a.max_rise r.steady in
  let final = r.max_rise.(Array.length r.max_rise - 1) in
  Float.abs (final -. steady) /. steady <= tol
