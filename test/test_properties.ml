(* Cross-cutting property tests: physical invariants that must hold across
   random geometries and all implementations. *)

module Units = Ttsv_physics.Units
module Params = Ttsv_core.Params
module Model_a = Ttsv_core.Model_a
module Model_b = Ttsv_core.Model_b
module Resistances = Ttsv_core.Resistances
module Stack = Ttsv_geometry.Stack
module Tsv = Ttsv_geometry.Tsv
module Problem = Ttsv_fem.Problem
module Solver = Ttsv_fem.Solver
module Circuit = Ttsv_network.Circuit
module Pool = Ttsv_parallel.Pool
open Helpers

(* a small random circuit: a ladder with random rungs *)
let gen_ladder =
  let open QCheck2.Gen in
  let* n = int_range 3 8 in
  let* rs = array_size (return (3 * n)) (float_range 0.5 20.) in
  return (n, rs)

let build_ladder (n, (rs : float array)) =
  let c = Circuit.create () in
  let g = Circuit.ground c in
  let left = Array.init n (fun i -> Circuit.add_node c (Printf.sprintf "l%d" i)) in
  let right = Array.init n (fun i -> Circuit.add_node c (Printf.sprintf "r%d" i)) in
  Circuit.add_resistor c g left.(0) rs.(0);
  Circuit.add_resistor c g right.(0) rs.(1);
  for i = 0 to n - 2 do
    Circuit.add_resistor c left.(i) left.(i + 1) rs.((3 * i) + 2);
    Circuit.add_resistor c right.(i) right.(i + 1) rs.((3 * i) + 3);
    Circuit.add_resistor c left.(i) right.(i) rs.((3 * i) + 4)
  done;
  (c, left, right)

let property_tests =
  [
    qtest ~count:40 "equivalent resistance is symmetric" gen_ladder (fun spec ->
        let c, left, right = build_ladder spec in
        let n = Array.length left in
        let a = left.(n - 1) and b = right.(n - 1) in
        let r1 = Circuit.equivalent_resistance c a b in
        let r2 = Circuit.equivalent_resistance c b a in
        Float.abs (r1 -. r2) < 1e-9 *. Float.max 1. r1);
    qtest ~count:40 "equivalent resistance satisfies the triangle inequality" gen_ladder
      (fun spec ->
        (* resistance distance is a metric on the nodes of a resistive
           network *)
        let c, left, right = build_ladder spec in
        let g = Circuit.ground c in
        let a = left.(Array.length left - 1) and b = right.(Array.length right - 1) in
        let rab = Circuit.equivalent_resistance c a b in
        let rag = Circuit.equivalent_resistance c a g in
        let rgb = Circuit.equivalent_resistance c g b in
        rab <= rag +. rgb +. 1e-9);
    qtest ~count:20 "scaling all resistances scales all temperatures" gen_stack3 (fun s ->
        (* Model A is linear in the resistance scale at fixed heats *)
        let qs = Stack.heat_inputs s in
        let rs = Resistances.of_stack s in
        let scale_triple c (t : Resistances.triple) =
          {
            Resistances.bulk = c *. t.Resistances.bulk;
            tsv = c *. t.Resistances.tsv;
            liner = c *. t.Resistances.liner;
          }
        in
        let scaled =
          {
            Resistances.triples = Array.map (scale_triple 2.5) rs.Resistances.triples;
            r_sink = 2.5 *. rs.Resistances.r_sink;
          }
        in
        let base = Model_a.solve_triples rs qs in
        let hot = Model_a.solve_triples scaled qs in
        Float.abs (Model_a.max_rise hot -. (2.5 *. Model_a.max_rise base))
        < 1e-9 *. Model_a.max_rise hot);
    qtest ~count:20 "Model B is linear in the heat inputs" gen_stack3 (fun s ->
        let seg = Model_b.paper_segmentation s 50 in
        let qs = Stack.heat_inputs s in
        let b1 = Model_b.max_rise (Model_b.solve_with_heats s seg qs) in
        let b2 =
          Model_b.max_rise (Model_b.solve_with_heats s seg (Ttsv_numerics.Vec.scale 3. qs))
        in
        Float.abs (b2 -. (3. *. b1)) < 1e-9 *. Float.max 1. b2);
    qtest ~count:20 "Model B rise decreases with radius at fixed heats" gen_stack3 (fun s ->
        let qs = Stack.heat_inputs s in
        let bigger = Stack.with_tsv s (Tsv.with_radius s.Stack.tsv (s.Stack.tsv.Tsv.radius *. 1.5)) in
        let rise st =
          Model_b.max_rise
            (Model_b.solve_with_heats st (Model_b.paper_segmentation st 50) qs)
        in
        rise bigger < rise s);
    qtest ~count:8 "FV rise is linear in the source (superposition)" gen_stack3 (fun s ->
        let p = Problem.of_stack s in
        let r1 = Solver.max_rise (Solver.solve p) in
        let doubled =
          Problem.make ~grid:p.Problem.grid ~conductivity:p.Problem.conductivity
            ~source:(Array.map (fun q -> 2. *. q) p.Problem.source)
        in
        let r2 = Solver.max_rise (Solver.solve doubled) in
        Float.abs (r2 -. (2. *. r1)) < 1e-6 *. Float.max 1. r2);
    qtest ~count:8 "every model agrees the top plane is the hottest" gen_stack3 (fun s ->
        let a = Model_a.solve s in
        let top_is_max =
          Array.for_all (fun t -> t <= a.Model_a.bulk.(2) +. 1e-12) a.Model_a.bulk
        in
        let b = Model_b.solve_n s 50 in
        let profile = Model_b.bulk_profile b in
        let top_b = snd profile.(Array.length profile - 1) in
        let b_top_near_max = top_b > 0.95 *. Model_b.max_rise b in
        top_is_max && b_top_near_max);
    qtest ~count:6 "FV and Model B(200) stay within 20% on random blocks" gen_stack3 (fun s ->
        (* the band must cover the generator's worst corner, not the
           typical draw: at t_si ~ 5 um with a thin liner the measured
           FV-vs-B(200) gap reaches ~17% (preconditioner-independent —
           mg/ic0 solutions agree to 1e-12 there), so 12% flaked on
           unlucky seeds *)
        let fv = Solver.max_rise (Solver.solve (Problem.of_stack s)) in
        let b = Model_b.max_rise (Model_b.solve_n s 200) in
        Float.abs (b -. fv) /. fv < 0.2);
  ]

(* pool-determinism properties: random sizes, chunkings and domain
   counts; integer payloads so "agrees" means exact equality *)
let gen_pool_case =
  let open QCheck2.Gen in
  let* n = int_range 0 5000 in
  let* chunk = int_range 1 64 in
  let* domains = int_range 1 4 in
  return (n, chunk, domains)

let parallel_properties =
  [
    qtest ~count:50 "map_reduce agrees with List.fold_left for associative ops"
      gen_pool_case
      (fun (n, chunk, domains) ->
        let xs = List.init n (fun i -> ((i * 37) mod 101) - 50) in
        let arr = Array.of_list xs in
        Pool.with_pool ~domains @@ fun pool ->
        let reduce_with op init =
          Pool.map_reduce ~chunk ~min_size:2 pool ~n
            ~map:(fun ~lo ~hi ->
              let acc = ref init in
              for i = lo to hi - 1 do
                acc := op !acc arr.(i)
              done;
              !acc)
            ~reduce:op ~init
        in
        reduce_with ( + ) 0 = List.fold_left ( + ) 0 xs
        && reduce_with Stdlib.max min_int
           = List.fold_left Stdlib.max min_int (min_int :: xs));
    qtest ~count:50 "parallel_for visits every index exactly once" gen_pool_case
      (fun (n, chunk, domains) ->
        Pool.with_pool ~domains @@ fun pool ->
        let counts = Array.make (Stdlib.max 1 n) 0 in
        Pool.parallel_for ~chunk ~min_size:2 pool n (fun i -> counts.(i) <- counts.(i) + 1);
        Array.for_all (fun c -> c = 1) (Array.sub counts 0 n));
  ]

let suite = ("properties", property_tests @ parallel_properties)
