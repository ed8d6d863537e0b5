module Stack = Ttsv_geometry.Stack
module Tsv = Ttsv_geometry.Tsv
module Material = Ttsv_physics.Material

let divided_resistances ?(coeffs = Coefficients.unity) stack n =
  if n < 1 then invalid_arg "Cluster.divided_resistances: n must be >= 1";
  let rs = Resistances.of_stack ~coeffs stack in
  if n = 1 then rs
  else begin
    let tsv = stack.Stack.tsv in
    let r0 = tsv.Tsv.radius and t_l = tsv.Tsv.liner_thickness in
    let k_liner = tsv.Tsv.liner.Material.conductivity in
    let fn = float_of_int n in
    let triples =
      Array.mapi
        (fun i (tr : Resistances.triple) ->
          let span = Resistances.plane_span stack i in
          let liner =
            log (((t_l *. sqrt fn) +. r0) /. r0)
            /. (2. *. fn *. Float.pi *. coeffs.Coefficients.k2 *. k_liner *. span)
          in
          { tr with Resistances.liner })
        rs.Resistances.triples
    in
    { rs with Resistances.triples }
  end

let solve ?coeffs stack n =
  Model_a.solve_triples (divided_resistances ?coeffs stack n) (Stack.heat_inputs stack)

(* First-principles variant: n thin TTSVs in parallel, geometry recomputed. *)
let solve_naive ?(coeffs = Coefficients.unity) stack n =
  if n < 1 then invalid_arg "Cluster.solve_naive: n must be >= 1";
  let tsv = stack.Stack.tsv in
  let thin = Tsv.divide tsv n in
  let fn = float_of_int n in
  (* resistances of one thin via's unit cell scaled: n vias in parallel share
     the cell, so the per-cell silicon area shrinks accordingly *)
  let area = stack.Stack.footprint -. (fn *. Tsv.occupied_area thin) in
  if area <= 0. then invalid_arg "Cluster.solve_naive: vias no longer fit the footprint";
  let { Coefficients.k1; k2 } = coeffs in
  let k_fill = thin.Tsv.filler.Material.conductivity in
  let k_liner = thin.Tsv.liner.Material.conductivity in
  let nplanes = Stack.num_planes stack in
  let triple i =
    let span = Resistances.plane_span stack i in
    let p = Stack.plane stack i in
    let k_of (m : Material.t) = m.Material.conductivity in
    let layers =
      let ild = p.Ttsv_geometry.Plane.t_ild /. k_of p.Ttsv_geometry.Plane.ild in
      let bond = p.Ttsv_geometry.Plane.t_bond /. k_of p.Ttsv_geometry.Plane.bond in
      if i = 0 then ild +. (tsv.Tsv.extension /. k_of p.Ttsv_geometry.Plane.substrate)
      else if i = nplanes - 1 then
        ild +. (p.Ttsv_geometry.Plane.t_substrate /. k_of p.Ttsv_geometry.Plane.substrate) +. bond
      else
        ild +. (p.Ttsv_geometry.Plane.t_substrate /. k_of p.Ttsv_geometry.Plane.substrate) +. bond
    in
    let bulk = layers /. (k1 *. area) in
    (* n fillers in parallel: same total metal area as the original *)
    let tsv_r = span /. (k1 *. k_fill *. fn *. Tsv.fill_area thin) in
    let liner =
      log (Tsv.outer_radius thin /. thin.Tsv.radius)
      /. (2. *. fn *. Float.pi *. k2 *. k_liner *. span)
    in
    { Resistances.bulk; tsv = tsv_r; liner }
  in
  let first = Stack.plane stack 0 in
  let r_sink =
    (first.Ttsv_geometry.Plane.t_substrate -. tsv.Tsv.extension)
    /. (k1 *. first.Ttsv_geometry.Plane.substrate.Material.conductivity *. stack.Stack.footprint)
  in
  let rs =
    {
      Resistances.triples = Array.init nplanes triple;
      r_sink;
      silicon_area = area;
    }
  in
  Model_a.solve_triples rs (Stack.heat_inputs stack)
