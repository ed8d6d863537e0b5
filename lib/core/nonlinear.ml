module Stack = Ttsv_geometry.Stack
module Plane = Ttsv_geometry.Plane
module Tsv = Ttsv_geometry.Tsv
module Material = Ttsv_physics.Material

(* Rebuild the stack with every plane's materials frozen at that plane's
   current absolute temperature. *)
let refreeze stack ~sink_temperature_k (r : Model_a.result) =
  let tsv = stack.Stack.tsv in
  let at m temp = Material.with_conductivity m (Material.k_at m temp) in
  let stack' =
    Stack.map_planes stack (fun i p ->
        let temp = sink_temperature_k +. r.Model_a.bulk.(i) in
        {
          p with
          Plane.substrate = at p.Plane.substrate temp;
          ild = at p.Plane.ild temp;
          bond = at p.Plane.bond temp;
        })
  in
  (* the filler spans the whole TTSV; evaluate it at the mean via-node
     temperature *)
  let via_temp =
    if Array.length r.Model_a.tsv = 0 then sink_temperature_k +. r.Model_a.t0
    else
      sink_temperature_k
      +. (Array.fold_left ( +. ) 0. r.Model_a.tsv /. float_of_int (Array.length r.Model_a.tsv))
  in
  Stack.with_tsv stack'
    { tsv with Tsv.filler = at tsv.Tsv.filler via_temp; liner = at tsv.Tsv.liner via_temp }

let solve ?coeffs ~sink_temperature_k stack =
  let rec picard sweep current prev_max =
    let r = Model_a.solve ?coeffs current in
    let m = Model_a.max_rise r in
    if Float.abs (m -. prev_max) <= 1e-6 *. Float.max m 1e-12 then (r, sweep)
    else if sweep >= 50 then
      failwith "Nonlinear.solve: Picard iteration did not settle"
    else picard (sweep + 1) (refreeze stack ~sink_temperature_k r) m
  in
  picard 1 stack Float.neg_infinity
