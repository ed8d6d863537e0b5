module Stack = Ttsv_geometry.Stack
module Plane = Ttsv_geometry.Plane
module Tsv = Ttsv_geometry.Tsv
module Material = Ttsv_physics.Material
module Reduce = Ttsv_network.Reduce

type result = { t0 : float; plane_tops : float array; plane_resistances : float array }

(* Per plane: stack path (ILD + substrate + bond in series over the bulk
   area) in parallel with the TTSV metal path over the same span.  The bulk
   area ignores the liner (A0 - pi r^2): the traditional model has no liner
   at all. *)
let plane_resistance stack i =
  let p = Stack.plane stack i in
  let tsv = stack.Stack.tsv in
  let area = stack.Stack.footprint -. Tsv.fill_area tsv in
  let k_of (m : Material.t) = m.Material.conductivity in
  let si_span = if i = 0 then tsv.Tsv.extension else p.Plane.t_substrate in
  let bulk_layers =
    (p.Plane.t_ild /. k_of p.Plane.ild)
    +. (si_span /. k_of p.Plane.substrate)
    +. (p.Plane.t_bond /. k_of p.Plane.bond)
  in
  let bulk = bulk_layers /. area in
  let tsv_span = Resistances.plane_span stack i in
  let tsv_r = Reduce.cylinder_axial ~length:tsv_span ~conductivity:(k_of tsv.Tsv.filler) ~radius:tsv.Tsv.radius in
  Reduce.parallel [ bulk; tsv_r ]

let solve_with_heats stack qs =
  let n = Stack.num_planes stack in
  if Array.length qs <> n then invalid_arg "Model_1d.solve_with_heats: heat vector length mismatch";
  let first = Stack.plane stack 0 in
  let tsv = stack.Stack.tsv in
  let r_sink =
    (first.Plane.t_substrate -. tsv.Tsv.extension)
    /. (first.Plane.substrate.Material.conductivity *. stack.Stack.footprint)
  in
  let plane_resistances = Array.init n (plane_resistance stack) in
  let total = Ttsv_numerics.Vec.sum qs in
  let t0 = r_sink *. total in
  (* heat crossing plane i = everything injected at or above it *)
  let above = Array.make n 0. in
  let acc = ref 0. in
  for i = n - 1 downto 0 do
    acc := !acc +. qs.(i);
    above.(i) <- !acc
  done;
  let plane_tops = Array.make n 0. in
  let t = ref t0 in
  for i = 0 to n - 1 do
    t := !t +. (plane_resistances.(i) *. above.(i));
    plane_tops.(i) <- !t
  done;
  { t0; plane_tops; plane_resistances }

let solve stack = solve_with_heats stack (Stack.heat_inputs stack)

let max_rise r = Ttsv_numerics.Vec.fold_max r.t0 r.plane_tops
