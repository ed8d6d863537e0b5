module Stack = Ttsv_geometry.Stack
module Tsv = Ttsv_geometry.Tsv

let divided_resistances ?(coeffs = Coefficients.unity) stack n =
  if n < 1 then invalid_arg "Cluster.divided_resistances: n must be >= 1";
  let rs = Resistances.of_stack ~coeffs stack in
  let triples =
    Array.mapi
      (fun i (tr : Resistances.triple) ->
        let span = Resistances.plane_span stack i in
        { tr with Resistances.liner = Resistances.cluster_liner ~coeffs stack.Stack.tsv ~span n })
      rs.Resistances.triples
  in
  { rs with Resistances.triples }

let solve ?coeffs stack n =
  Model_a.solve_triples (divided_resistances ?coeffs stack n) (Stack.heat_inputs stack)

(* First-principles variant: the unit cell holds n thin TTSVs in parallel. *)
let solve_naive ?coeffs stack n =
  if n < 1 then invalid_arg "Cluster.solve_naive: n must be >= 1";
  let thin = Stack.with_tsv stack (Tsv.divide stack.Stack.tsv n) in
  let rs =
    Resistances.cell ?coeffs thin ~footprint:stack.Stack.footprint ~vias:(float_of_int n)
  in
  Model_a.solve_triples rs (Stack.heat_inputs stack)
