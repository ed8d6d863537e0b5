module Stack = Ttsv_geometry.Stack
module Banded = Ttsv_numerics.Banded
module Vec = Ttsv_numerics.Vec

type result = {
  t0 : float;
  bulk : float array;
  tsv : float array;
  tsv_heat : float;
  resistances : Resistances.t;
}

(* T0 is the foot of both rails: plane 1's bulk and filler resistors both
   start there. *)
let walk (rs : Resistances.t) ~resistor =
  let n = Array.length rs.Resistances.triples in
  resistor 0 (-1) rs.Resistances.r_sink;
  Array.iteri
    (fun i (tr : Resistances.triple) ->
      let b = (2 * i) + 1 in
      let below_bulk = if i = 0 then 0 else b - 2 and below_tsv = if i = 0 then 0 else b - 1 in
      resistor below_bulk b tr.Resistances.bulk;
      if i < n - 1 then begin
        resistor below_tsv (b + 1) tr.Resistances.tsv;
        resistor b (b + 1) tr.Resistances.liner
      end
      else resistor below_tsv b (tr.Resistances.tsv +. tr.Resistances.liner))
    rs.Resistances.triples

(* Node i's diagonal sits at 5i + 2 and (i, j) at 5i + 2 + j - i; the sink
   is eliminated, so R_s leaves only its diagonal term. *)
let band rs =
  let n = Array.length rs.Resistances.triples in
  if n = 0 then invalid_arg "Model_a.band: no planes";
  let a = Array.make (10 * n) 0. in
  walk rs ~resistor:(fun i j r ->
      let g = 1. /. r and ii = (5 * i) + 2 in
      a.(ii) <- a.(ii) +. g;
      if j >= 0 then begin
        let jj = (5 * j) + 2 in
        a.(jj) <- a.(jj) +. g;
        a.(ii + j - i) <- a.(ii + j - i) -. g;
        a.(jj + i - j) <- a.(jj + i - j) -. g
      end);
  a

let solve_triples (rs : Resistances.t) qs =
  let n = Array.length rs.Resistances.triples in
  if Array.length qs <> n then invalid_arg "Model_a.solve_triples: heat vector length mismatch";
  let a = band rs and x = Array.make (2 * n) 0. in
  for i = 0 to n - 1 do
    x.((2 * i) + 1) <- qs.(i)
  done;
  Banded.solve_in_place ~n:(2 * n) ~bw:2 a x;
  let foot = rs.Resistances.triples.(0) in
  {
    t0 = x.(0);
    bulk = Array.init n (fun i -> x.((2 * i) + 1));
    tsv = Array.init (n - 1) (fun i -> x.((2 * i) + 2));
    tsv_heat =
      (if n = 1 then (x.(1) -. x.(0)) /. (foot.Resistances.tsv +. foot.Resistances.liner)
       else (x.(2) -. x.(0)) /. foot.Resistances.tsv);
    resistances = rs;
  }

let solve_with_heats ?coeffs stack qs =
  solve_triples (Resistances.of_stack ?coeffs stack) qs

let solve ?coeffs stack = solve_with_heats ?coeffs stack (Stack.heat_inputs stack)

let max_rise r = Vec.fold_max (Vec.fold_max r.t0 r.bulk) r.tsv

let sink_path_heat r = r.t0 /. r.resistances.Resistances.r_sink
