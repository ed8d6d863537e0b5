module Stack = Ttsv_geometry.Stack
module Circuit = Ttsv_network.Circuit
module Vec = Ttsv_numerics.Vec

type result = {
  t0 : float;
  bulk : float array;
  tsv : float array;
  tsv_heat : float;
  resistances : Resistances.t;
}

type network = {
  circuit : Circuit.t;
  t0_node : Circuit.node;
  bulk_nodes : Circuit.node array;
  tsv_nodes : Circuit.node array;
}

(* Stamp the eq. 1-6 network from per-plane triples. *)
let build_network (rs : Resistances.t) qs =
  let n = Array.length rs.Resistances.triples in
  if n = 0 then invalid_arg "Model_a.build_network: no planes";
  if Array.length qs <> n then
    invalid_arg "Model_a.build_network: heat vector length mismatch";
  let c = Circuit.create () in
  let ground = Circuit.ground c in
  let t0 = Circuit.add_node c "T0" in
  Circuit.add_resistor c t0 ground rs.Resistances.r_sink;
  let bulk = Array.init n (fun i -> Circuit.add_node c (Printf.sprintf "bulk%d" (i + 1))) in
  let tsv =
    Array.init (Stdlib.max (n - 1) 0) (fun i -> Circuit.add_node c (Printf.sprintf "tsv%d" (i + 1)))
  in
  (* bulk chain: T0 - B1 - B2 - ... - BN *)
  Array.iteri
    (fun i (tr : Resistances.triple) ->
      let below = if i = 0 then t0 else bulk.(i - 1) in
      Circuit.add_resistor c below bulk.(i) tr.Resistances.bulk)
    rs.Resistances.triples;
  (* TTSV chain: T0 - V1 - ... - V(N-1), closed at the top through R8+R9 *)
  if n = 1 then begin
    (* single plane: the TSV foot at T0 reaches the bulk node through the
       filler and liner in series *)
    let tr = rs.Resistances.triples.(0) in
    Circuit.add_resistor c t0 bulk.(0) (tr.Resistances.tsv +. tr.Resistances.liner)
  end
  else begin
    for i = 0 to n - 2 do
      let tr = rs.Resistances.triples.(i) in
      let below = if i = 0 then t0 else tsv.(i - 1) in
      Circuit.add_resistor c below tsv.(i) tr.Resistances.tsv;
      Circuit.add_resistor c bulk.(i) tsv.(i) tr.Resistances.liner
    done;
    let top = rs.Resistances.triples.(n - 1) in
    Circuit.add_resistor c tsv.(n - 2) bulk.(n - 1) (top.Resistances.tsv +. top.Resistances.liner)
  end;
  Array.iteri (fun i q -> Circuit.add_heat_source c bulk.(i) q) qs;
  { circuit = c; t0_node = t0; bulk_nodes = bulk; tsv_nodes = tsv }

let solve_triples (rs : Resistances.t) qs =
  let n = Array.length rs.Resistances.triples in
  let { circuit; t0_node; bulk_nodes; tsv_nodes } = build_network rs qs in
  let sol = Circuit.solve circuit in
  let temp = Circuit.temperature sol in
  {
    t0 = temp t0_node;
    bulk = Array.map temp bulk_nodes;
    tsv = Array.map temp tsv_nodes;
    tsv_heat =
      (if n = 1 then Circuit.branch_heat_flow sol bulk_nodes.(0) t0_node
       else Circuit.branch_heat_flow sol tsv_nodes.(0) t0_node);
    resistances = rs;
  }

let solve_with_heats ?coeffs stack qs =
  solve_triples (Resistances.of_stack ?coeffs stack) qs

let solve ?coeffs stack = solve_with_heats ?coeffs stack (Stack.heat_inputs stack)

let max_rise r = Vec.fold_max (Vec.fold_max r.t0 r.bulk) r.tsv

let sink_path_heat r = r.t0 /. r.resistances.Resistances.r_sink
