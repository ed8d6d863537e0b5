module Stack = Ttsv_geometry.Stack
module Plane = Ttsv_geometry.Plane
module Tsv = Ttsv_geometry.Tsv
module Material = Ttsv_physics.Material
module Banded = Ttsv_numerics.Banded
module Vec = Ttsv_numerics.Vec

type result = {
  times : float array;
  max_rise : float array;
  bulk : float array array;
  steady : Model_a.result;
}

(* Lumped nodal heat capacities, J/K, at Model_a.walk's node numbers: each
   node absorbs the thermal mass of the layers its resistances span. *)
let capacities stack =
  let n = Stack.num_planes stack in
  let caps = Array.make (2 * n) 0. in
  let tsv = stack.Stack.tsv in
  let area = Stack.silicon_area stack in
  let rc (m : Material.t) = m.Material.volumetric_heat_capacity in
  caps.(0) <-
    stack.Stack.footprint *. Resistances.sink_span stack *. rc (Stack.plane stack 0).Plane.substrate;
  for i = 0 to n - 1 do
    let p = Stack.plane stack i in
    caps.((2 * i) + 1) <-
      area
      *. ((p.Plane.t_ild *. rc p.Plane.ild)
         +. (Resistances.substrate_span stack i *. rc p.Plane.substrate)
         +. (p.Plane.t_bond *. rc p.Plane.bond));
    if i < n - 1 then
      caps.((2 * i) + 2) <- Tsv.fill_area tsv *. Resistances.plane_span stack i *. rc tsv.Tsv.filler
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
  let caps = capacities stack in
  let n = Array.length caps in
  (* G + C/dt, eliminated afresh from a copy at every step *)
  let system = Model_a.band rs in
  for i = 0 to n - 1 do
    system.((5 * i) + 2) <- system.((5 * i) + 2) +. (caps.(i) /. dt)
  done;
  let q0 = Array.make n 0. in
  Array.iteri (fun p q -> q0.((2 * p) + 1) <- q) qs;
  let steps = int_of_float (Float.ceil (duration /. dt)) in
  let nplanes = Stack.num_planes stack in
  let a = Array.make (5 * n) 0. and t = Array.make n 0. in
  let times = Array.make (steps + 1) 0. in
  let maxes = Array.make (steps + 1) 0. in
  let bulk = Array.make_matrix (steps + 1) nplanes 0. in
  for m = 1 to steps do
    let time = float_of_int m *. dt in
    let scale = power time in
    for i = 0 to n - 1 do
      t.(i) <- (q0.(i) *. scale) +. (caps.(i) /. dt *. t.(i))
    done;
    Array.blit system 0 a 0 (5 * n);
    Banded.solve_in_place ~n ~bw:2 a t;
    times.(m) <- time;
    maxes.(m) <- Vec.fold_max 0. t;
    for p = 0 to nplanes - 1 do
      bulk.(m).(p) <- t.((2 * p) + 1)
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
