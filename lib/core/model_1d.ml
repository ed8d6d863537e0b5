module Stack = Ttsv_geometry.Stack
module Tsv = Ttsv_geometry.Tsv
module Material = Ttsv_physics.Material

type result = { t0 : float; plane_tops : float array; plane_resistances : float array }

(* Per plane: stack path (ILD + substrate + bond in series over the bulk
   area) in parallel with the TTSV metal path over the same span, a solid
   cylinder L/(k·πr²).  The bulk area ignores the liner (A0 - pi r^2): the
   traditional model has no liner at all. *)
let plane_resistance stack i =
  let tsv = stack.Stack.tsv in
  let bulk = Resistances.bulk_layers stack i /. (stack.Stack.footprint -. Tsv.fill_area tsv) in
  let r = tsv.Tsv.radius in
  let metal =
    Resistances.plane_span stack i
    /. (tsv.Tsv.filler.Material.conductivity *. Float.pi *. r *. r)
  in
  1. /. ((1. /. bulk) +. (1. /. metal))

let solve_with_heats stack qs =
  let n = Stack.num_planes stack in
  if Array.length qs <> n then invalid_arg "Model_1d.solve_with_heats: heat vector length mismatch";
  let r_sink = Resistances.sink stack ~footprint:stack.Stack.footprint in
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
