module Stack = Ttsv_geometry.Stack
module Plane = Ttsv_geometry.Plane
module Material = Ttsv_physics.Material
module Banded = Ttsv_numerics.Banded
module Vec = Ttsv_numerics.Vec
module Circuit = Ttsv_network.Circuit

type segmentation = (int * int) array

type result = {
  t0 : float;
  temps : float array;
  nodes : int;
  segmentation : segmentation;
  stack : Stack.t;
}

let segmentation_for stack ~counts =
  let n = Stack.num_planes stack in
  if Array.length counts <> n then
    invalid_arg "Model_b.segmentation_for: one count per plane required";
  Array.mapi
    (fun i count ->
      if count < 1 then invalid_arg "Model_b.segmentation_for: counts must be >= 1";
      let p = Stack.plane stack i in
      let t_si_part = p.Plane.t_bond +. Resistances.substrate_span stack i in
      let top = i = n - 1 in
      if count = 1 then if top then (1, 1) else (1, 0)
      else begin
        let frac = t_si_part /. (t_si_part +. p.Plane.t_ild) in
        let n_si = int_of_float (Float.round (float_of_int count *. frac)) in
        let n_si = Stdlib.min (count - 1) (Stdlib.max n_si (if top then 1 else 0)) in
        let n_si = if top then Stdlib.max n_si 1 else n_si in
        (count - n_si, n_si)
      end)
    counts

let paper_segmentation stack n =
  if n < 1 then invalid_arg "Model_b.paper_segmentation: n must be >= 1";
  let planes = Stack.num_planes stack in
  let counts = Array.make planes n in
  if planes > 0 then counts.(0) <- Stdlib.max 1 (n / 10);
  segmentation_for stack ~counts

(* Per-plane totals of eq. 21, evaluated without fitting coefficients.
   [cluster] > 1 applies eq. 22 to the liner total: the TTSV is split into
   [cluster] vias of radius r0/sqrt(cluster), leaving the vertical metal
   resistance unchanged and shrinking the lateral liner resistance. *)
let plane_totals ?(cluster = 1) stack i =
  let p = Stack.plane stack i in
  let tsv = stack.Stack.tsv in
  let area = Stack.silicon_area stack in
  let k_of (m : Material.t) = m.Material.conductivity in
  let span = Resistances.plane_span stack i in
  let r_ild = p.Plane.t_ild /. (k_of p.Plane.ild *. area) in
  let r_si = Resistances.substrate_span stack i /. (k_of p.Plane.substrate *. area) in
  let r_bond = p.Plane.t_bond /. (k_of p.Plane.bond *. area) in
  let r_metal = Resistances.filler tsv ~span ~vias:1. in
  let r_liner = Resistances.cluster_liner tsv ~span cluster in
  (r_ild, r_si, r_bond, r_metal, r_liner)

(* Check a segmentation against its stack and count its ladder's nodes:
   T0, one bulk node per segment, and one metal node per segment the TTSV
   runs through (all but the top plane's ILD segments). *)
let node_count ?(cluster = 1) stack seg qs =
  if cluster < 1 then invalid_arg "Model_b.solve: cluster must be >= 1";
  let n = Stack.num_planes stack in
  if Array.length seg <> n then invalid_arg "Model_b.solve: segmentation length mismatch";
  if Array.length qs <> n then invalid_arg "Model_b.solve: heat vector length mismatch";
  let count = ref 1 in
  Array.iteri
    (fun i (n_ild, n_si) ->
      if n_ild < 1 then invalid_arg "Model_b.solve: each plane needs an ILD segment";
      if n_si < 0 then invalid_arg "Model_b.solve: negative substrate segment count";
      let top = i = n - 1 in
      if top && n_si = 0 then
        invalid_arg "Model_b.solve: the top plane needs a substrate segment";
      count := !count + (2 * (n_ild + n_si)) - (if top then n_ild else 0))
    seg;
  !count

(* Walk a checked ladder bottom to top in node order.  T0 is node 0; each
   segment adds its bulk node and, where the TTSV runs, its metal node
   right after it, which keeps the half-bandwidth at 2.  [bulk b q z] and
   [metal m z] announce a node (heat [q] in, segment top at height [z])
   before [resistor i j r] joins it to the nodes below. *)
let walk ?cluster stack seg qs ~bulk ~metal ~resistor =
  let n = Stack.num_planes stack in
  let next = ref 1 and prev_bulk = ref 0 and prev_metal = ref 0 and z = ref 0. in
  for i = 0 to n - 1 do
    let n_ild, n_si = seg.(i) in
    let top = i = n - 1 in
    let p = Stack.plane stack i in
    let r_ild, r_si, r_bond, r_metal, r_liner = plane_totals ?cluster stack i in
    let n_total = n_ild + n_si in
    (* the top plane's metal column spans only its substrate segments *)
    let metal_segments = if top then n_si else n_total in
    let per_metal = r_metal /. float_of_int metal_segments in
    let per_rung = r_liner *. float_of_int metal_segments in
    let dz_si =
      (p.Plane.t_bond +. Resistances.substrate_span stack i)
      /. float_of_int (Stdlib.max n_si 1)
    in
    let dz_ild = p.Plane.t_ild /. float_of_int n_ild in
    (* bond + substrate segments first, then the ILD ones; the first segment
       carries the bond, and the substrate too when it has no segments *)
    for s = 0 to n_total - 1 do
      let b = !next in
      let on_si = s < n_si in
      z := !z +. (if on_si then dz_si else dz_ild);
      bulk b (if on_si then 0. else qs.(i) /. float_of_int n_ild) !z;
      resistor !prev_bulk b
        (if on_si then (r_si /. float_of_int n_si) +. (if s = 0 then r_bond else 0.)
         else (r_ild /. float_of_int n_ild) +. (if s = 0 then r_si +. r_bond else 0.));
      prev_bulk := b;
      next := b + 1;
      if on_si || not top then begin
        let m = b + 1 in
        metal m !z;
        resistor !prev_metal m per_metal;
        resistor b m per_rung;
        prev_metal := m;
        next := m + 1
      end
    done
  done

(* Band and rhs of the largest ladder this domain solved: arrays over 256
   words go to the major heap, whose collections stop every domain.  Node
   i's diagonal sits at 5i + 2 and (i, j) at 5i + 2 + j - i; the prefix a
   solve uses is zeroed first, so a solve that raised leaves nothing. *)
let scratch = Domain.DLS.new_key (fun () -> ref ([||], [||]))

let solve_with_heats ?cluster stack seg qs =
  let count = node_count ?cluster stack seg qs in
  let s = Domain.DLS.get scratch in
  if Array.length (snd !s) < count then s := (Array.make (5 * count) 0., Array.make count 0.);
  let a, rhs = !s in
  Array.fill a 0 (5 * count) 0.;
  Array.fill rhs 0 count 0.;
  (* T0 to ground through R_s: ground is eliminated, only the diagonal term
     remains *)
  a.(2) <- 1. /. Resistances.sink stack ~footprint:stack.Stack.footprint;
  walk ?cluster stack seg qs
    ~bulk:(fun b q _ -> rhs.(b) <- q)
    ~metal:(fun _ _ -> ())
    ~resistor:(fun i j r ->
      let g = 1. /. r and ii = (5 * i) + 2 and jj = (5 * j) + 2 in
      a.(ii) <- a.(ii) +. g;
      a.(jj) <- a.(jj) +. g;
      a.(ii + j - i) <- a.(ii + j - i) -. g;
      a.(jj + i - j) <- a.(jj + i - j) -. g);
  Banded.solve_in_place ~n:count ~bw:2 a rhs;
  let temps = Array.sub rhs 0 count in
  { t0 = temps.(0); temps; nodes = count; segmentation = seg; stack }

let solve ?cluster stack seg = solve_with_heats ?cluster stack seg (Stack.heat_inputs stack)

let solve_n ?cluster stack n = solve ?cluster stack (paper_segmentation stack n)

let max_rise r = Vec.fold_max 0. r.temps

(* Re-walk the solved ladder and pair each node one callback announces
   with its rise; the heights do not depend on the heats or the cluster. *)
let profile r ~bulk ~metal =
  let acc = ref [] in
  let keep on i z = if on then acc := (z, r.temps.(i)) :: !acc in
  walk r.stack r.segmentation (Stack.heat_inputs r.stack)
    ~bulk:(fun b _ z -> keep bulk b z)
    ~metal:(keep metal)
    ~resistor:(fun _ _ _ -> ());
  Array.of_list (List.rev !acc)

let bulk_profile r = profile r ~bulk:true ~metal:false
let tsv_profile r = profile r ~bulk:false ~metal:true

(* Test oracle: the same walk through the generic circuit solver. *)
let solve_via_circuit stack seg =
  let qs = Stack.heat_inputs stack in
  let c = Circuit.create () in
  let t0 = Circuit.add_node c "T0" in
  let nodes = Array.make (node_count stack seg qs) t0 in
  Circuit.add_resistor c t0 (Circuit.ground c)
    (Resistances.sink stack ~footprint:stack.Stack.footprint);
  let add i label = nodes.(i) <- Circuit.add_node c (Printf.sprintf "%s%d" label i) in
  walk stack seg qs
    ~bulk:(fun b q _ ->
      add b "b";
      if q <> 0. then Circuit.add_heat_source c nodes.(b) q)
    ~metal:(fun m _ -> add m "m")
    ~resistor:(fun i j r -> Circuit.add_resistor c nodes.(i) nodes.(j) r);
  Circuit.max_temperature (Circuit.solve c)
