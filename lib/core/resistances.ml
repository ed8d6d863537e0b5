module Stack = Ttsv_geometry.Stack
module Plane = Ttsv_geometry.Plane
module Tsv = Ttsv_geometry.Tsv
module Material = Ttsv_physics.Material

type triple = { bulk : float; tsv : float; liner : float }

type t = { triples : triple array; r_sink : float }

let k_of (m : Material.t) = m.Material.conductivity

let plane_span stack i =
  let n = Stack.num_planes stack in
  let p = Stack.plane stack i in
  let tsv = stack.Stack.tsv in
  if i = 0 then p.Plane.t_ild +. tsv.Tsv.extension
  else if i = n - 1 then p.Plane.t_bond +. p.Plane.t_substrate
  else p.Plane.t_bond +. p.Plane.t_substrate +. p.Plane.t_ild

let substrate_span stack i =
  if i = 0 then stack.Stack.tsv.Tsv.extension else (Stack.plane stack i).Plane.t_substrate

let sink_span stack = (Stack.plane stack 0).Plane.t_substrate -. stack.Stack.tsv.Tsv.extension

(* Plane 1 has no bond (t_b = 0), so adding its bond term is exact. *)
let bulk_layers stack i =
  let p = Stack.plane stack i in
  (p.Plane.t_ild /. k_of p.Plane.ild)
  +. (substrate_span stack i /. k_of p.Plane.substrate)
  +. (p.Plane.t_bond /. k_of p.Plane.bond)

let sink ?(coeffs = Coefficients.unity) stack ~footprint =
  sink_span stack
  /. (coeffs.Coefficients.k1 *. k_of (Stack.plane stack 0).Plane.substrate *. footprint)

let filler ?(coeffs = Coefficients.unity) tsv ~span ~vias =
  span /. (coeffs.Coefficients.k1 *. k_of tsv.Tsv.filler *. vias *. Tsv.fill_area tsv)

(* The via count multiplies last, so one via's liner keeps its bits. *)
let liner ?(coeffs = Coefficients.unity) tsv ~span ~vias =
  log (Tsv.outer_radius tsv /. tsv.Tsv.radius)
  /. (2. *. Float.pi *. coeffs.Coefficients.k2 *. k_of tsv.Tsv.liner *. span *. vias)

let cluster_liner ?(coeffs = Coefficients.unity) tsv ~span n =
  let fn = float_of_int n in
  let r0 = tsv.Tsv.radius in
  log (((tsv.Tsv.liner_thickness *. sqrt fn) +. r0) /. r0)
  /. (2. *. fn *. Float.pi *. coeffs.Coefficients.k2 *. k_of tsv.Tsv.liner *. span)

let cell ?(coeffs = Coefficients.unity) stack ~footprint ~vias =
  let tsv = stack.Stack.tsv in
  let area = footprint -. (vias *. Tsv.occupied_area tsv) in
  if not (area > 0.) then invalid_arg "Resistances.cell: the vias do not fit the footprint";
  let triple i =
    let span = plane_span stack i in
    {
      bulk = bulk_layers stack i /. (coeffs.Coefficients.k1 *. area);
      tsv = filler ~coeffs tsv ~span ~vias;
      liner = liner ~coeffs tsv ~span ~vias;
    }
  in
  { triples = Array.init (Stack.num_planes stack) triple; r_sink = sink ~coeffs stack ~footprint }

let of_stack ?coeffs stack = cell ?coeffs stack ~footprint:stack.Stack.footprint ~vias:1.
