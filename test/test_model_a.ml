(* Tests for Model A and its 3-plane closed form. *)

module Units = Ttsv_physics.Units
module Params = Ttsv_core.Params
module Coefficients = Ttsv_core.Coefficients
module Resistances = Ttsv_core.Resistances
module Model_a = Ttsv_core.Model_a
module Closed_form = Ttsv_core.Closed_form
module Stack = Ttsv_geometry.Stack
module Tsv = Ttsv_geometry.Tsv
module Circuit = Ttsv_network.Circuit
open Helpers

(* one plane on a 500 um substrate: its only TTSV branch, filler + liner,
   runs from T0 to the bulk node beside R1 *)
let single_plane () =
  let tsv = Tsv.make ~radius:(Units.um 5.) ~liner_thickness:(Units.um 1.)
      ~extension:(Units.um 1.) ()
  in
  let plane =
    Ttsv_geometry.Plane.make ~t_substrate:(Units.um 500.) ~t_ild:(Units.um 4.)
      ~t_bond:0. ~t_device:(Units.um 1.)
      ~device_power_density:(Units.w_per_mm3 700.) ()
  in
  Stack.make ~footprint:1e-8 ~planes:[ plane ] ~tsv ()

let unit_tests =
  [
    test "T0 = Rs * total heat (eq. 6)" (fun () ->
        let stack = Params.block () in
        let r = Model_a.solve stack in
        let rs = Resistances.of_stack stack in
        close_rel "t0"
          (rs.Resistances.r_sink *. Stack.total_heat stack)
          r.Model_a.t0);
    test "energy conservation: all heat leaves through Rs" (fun () ->
        let stack = Params.block () in
        let r = Model_a.solve stack in
        close_rel ~tol:1e-9 "sink flow" (Stack.total_heat stack) (Model_a.sink_path_heat r));
    test "temperatures increase with height" (fun () ->
        let r = Model_a.solve (Params.block ()) in
        Alcotest.(check bool) "t0 < bulk1" true (r.Model_a.t0 < r.Model_a.bulk.(0));
        Alcotest.(check bool) "bulk1 < bulk2" true (r.Model_a.bulk.(0) < r.Model_a.bulk.(1));
        Alcotest.(check bool) "bulk2 < bulk3" true (r.Model_a.bulk.(1) < r.Model_a.bulk.(2)));
    test "max rise is the top bulk node for the paper block" (fun () ->
        let r = Model_a.solve (Params.block ()) in
        close_rel "max" r.Model_a.bulk.(2) (Model_a.max_rise r));
    test "TSV carries heat toward the sink" (fun () ->
        let r = Model_a.solve (Params.block ()) in
        Alcotest.(check bool) "positive" true (r.Model_a.tsv_heat > 0.));
    test "k1 > 1 reduces temperatures" (fun () ->
        let stack = Params.block () in
        let base = Model_a.max_rise (Model_a.solve stack) in
        let fitted =
          Model_a.max_rise (Model_a.solve ~coeffs:(Coefficients.make ~k1:1.3 ~k2:1.) stack)
        in
        Alcotest.(check bool) "cooler" true (fitted < base));
    test "single-plane stack is solvable" (fun () ->
        let stack = single_plane () in
        let r = Model_a.solve stack in
        Alcotest.(check bool) "positive" true (Model_a.max_rise r > 0.);
        close_rel ~tol:1e-9 "conservation" (Stack.total_heat stack) (Model_a.sink_path_heat r));
    test "single-plane tsv_heat is the flow down filler + liner, not R1's too" (fun () ->
        (* R1 and the TTSV branch both join T0 to the bulk node; summing
           every resistor between the two reported all the injected heat *)
        let stack = single_plane () in
        let r = Model_a.solve stack in
        let foot = r.Model_a.resistances.Resistances.triples.(0) in
        close_rel ~tol:1e-12 "branch flow"
          ((r.Model_a.bulk.(0) -. r.Model_a.t0) /. (foot.Resistances.tsv +. foot.Resistances.liner))
          r.Model_a.tsv_heat;
        Alcotest.(check bool) "a share of the heat" true
          (r.Model_a.tsv_heat > 0. && r.Model_a.tsv_heat < 0.5 *. Stack.total_heat stack));
    test "a Model A solve on the block allocates at most 400 minor words" (fun () ->
        (* the eq. 1-6 network stamped through Circuit (a name per node, a
           table of sources, a resistor list, a reachability search and
           dense LU) cost 1,904 minor words a solve; the flat band ~205 *)
        let stack = Params.block () in
        ignore (Model_a.solve stack);
        let before = Gc.minor_words () in
        ignore (Sys.opaque_identity (Model_a.solve stack));
        let words = Gc.minor_words () -. before in
        Alcotest.(check bool) (Printf.sprintf "%.0f minor words <= 400" words) true (words <= 400.));
    test "more planes run hotter (same per-plane power)" (fun () ->
        let build n =
          let tsv = Tsv.make ~radius:(Units.um 5.) ~liner_thickness:(Units.um 1.)
              ~extension:(Units.um 1.) ()
          in
          let plane ~first =
            Ttsv_geometry.Plane.make ~t_substrate:(if first then Units.um 500. else Units.um 45.)
              ~t_ild:(Units.um 4.)
              ~t_bond:(if first then 0. else Units.um 1.)
              ~t_device:(Units.um 1.)
              ~device_power_density:(Units.w_per_mm3 700.)
              ~ild_power_density:(Units.w_per_mm3 70.) ()
          in
          Stack.make ~footprint:1e-8
            ~planes:(plane ~first:true :: List.init (n - 1) (fun _ -> plane ~first:false))
            ~tsv ()
        in
        let rise n = Model_a.max_rise (Model_a.solve (build n)) in
        Alcotest.(check bool) "2<3" true (rise 2 < rise 3);
        Alcotest.(check bool) "3<4" true (rise 3 < rise 4);
        Alcotest.(check bool) "4<5" true (rise 4 < rise 5));
    test "heat vector length is validated" (fun () ->
        let stack = Params.block () in
        check_raises_invalid "qs" (fun () ->
            ignore (Model_a.solve_with_heats stack [| 1.; 2. |])));
    test "closed form requires three planes" (fun () ->
        let rs = Resistances.of_stack (Params.block ()) in
        let bad = { rs with Resistances.triples = Array.sub rs.Resistances.triples 0 2 } in
        check_raises_invalid "planes" (fun () ->
            ignore (Closed_form.solve bad ~q1:1. ~q2:1. ~q3:1.)));
  ]

let closed_form_matches_network (stack, qs) =
  let rs = Resistances.of_stack ~coeffs:Coefficients.paper_block stack in
  let net = Model_a.solve_triples rs qs in
  let cf = Closed_form.solve rs ~q1:qs.(0) ~q2:qs.(1) ~q3:qs.(2) in
  let ok a b = Float.abs (a -. b) <= 1e-9 *. Float.max 1. (Float.abs b) in
  ok cf.Closed_form.t0 net.Model_a.t0
  && ok cf.Closed_form.t1 net.Model_a.bulk.(0)
  && ok cf.Closed_form.t3 net.Model_a.bulk.(1)
  && ok cf.Closed_form.t5 net.Model_a.bulk.(2)
  && ok cf.Closed_form.t2 net.Model_a.tsv.(0)
  && ok cf.Closed_form.t4 net.Model_a.tsv.(1)
  && ok (Closed_form.max_rise cf) (Model_a.max_rise net)

(* 1-8 planes, every resistance 1 to 1e5 K/W, heats 1-100 mW *)
let gen_network =
  let open QCheck2.Gen in
  let r = map (fun e -> 10. ** e) (float_range 0. 5.) in
  let triple = map3 (fun bulk tsv liner -> { Resistances.bulk; tsv; liner }) r r r in
  let* n = int_range 1 8 in
  let* triples = array_size (return n) triple in
  let* r_sink = r in
  let* qs = array_size (return n) (float_range 1e-3 0.1) in
  return ({ Resistances.triples; r_sink }, qs)

(* the band solve against the same walk through the generic circuit, as
   Model_b.solve_via_circuit checks Model B's ladder *)
let band_matches_circuit (rs, qs) =
  let r = Model_a.solve_triples rs qs in
  let c, nodes = walk_circuit rs qs in
  let sol = Circuit.solve c in
  let t k = Circuit.temperature sol nodes.(k) in
  let ok a b = Float.abs (a -. b) <= 1e-12 *. Float.abs b in
  let n = Array.length qs and foot = rs.Resistances.triples.(0) in
  let tsv_heat =
    if n = 1 then (t 1 -. t 0) /. (foot.Resistances.tsv +. foot.Resistances.liner)
    else (t 2 -. t 0) /. foot.Resistances.tsv
  in
  ok r.Model_a.t0 (t 0)
  && Array.length r.Model_a.bulk = n
  && Array.length r.Model_a.tsv = n - 1
  && Array.for_all Fun.id (Array.mapi (fun i x -> ok x (t ((2 * i) + 1))) r.Model_a.bulk)
  && Array.for_all Fun.id (Array.mapi (fun i x -> ok x (t ((2 * i) + 2))) r.Model_a.tsv)
  && ok r.Model_a.tsv_heat tsv_heat

let print_network ((rs : Resistances.t), qs) =
  let f = Printf.sprintf "%h" in
  Printf.sprintf "r_sink=%s triples=[%s] qs=[%s]" (f rs.Resistances.r_sink)
    (String.concat "; "
       (Array.to_list
          (Array.map
             (fun (tr : Resistances.triple) ->
               Printf.sprintf "%s,%s,%s" (f tr.Resistances.bulk) (f tr.Resistances.tsv)
                 (f tr.Resistances.liner))
             rs.Resistances.triples)))
    (String.concat "; " (Array.to_list (Array.map f qs)))

let property_tests =
  [
    qtest ~count:200 ~print:print_network "band solve equals the walk through Circuit, 1-8 planes"
      gen_network band_matches_circuit;
    qtest ~count:80 "closed form equals the network solve"
      QCheck2.Gen.(pair gen_stack3 gen_heats3)
      closed_form_matches_network;
    qtest ~count:40 "max rise decreases with TSV radius" gen_stack3 (fun s ->
        let grow =
          Stack.with_tsv s (Tsv.with_radius s.Stack.tsv (s.Stack.tsv.Tsv.radius *. 1.5))
        in
        Model_a.max_rise (Model_a.solve grow) < Model_a.max_rise (Model_a.solve s));
    qtest ~count:40 "max rise increases with liner thickness" gen_stack3 (fun s ->
        let thicker =
          Stack.with_tsv s
            (Tsv.with_liner_thickness s.Stack.tsv (s.Stack.tsv.Tsv.liner_thickness *. 2.))
        in
        (* heat inputs shrink slightly with the occupied area; compare at
           fixed heats to isolate the resistance effect *)
        let qs = Stack.heat_inputs s in
        Model_a.max_rise (Model_a.solve_with_heats thicker qs)
        > Model_a.max_rise (Model_a.solve_with_heats s qs));
    qtest ~count:40 "superposition over heat vectors"
      QCheck2.Gen.(triple gen_stack3 gen_heats3 gen_heats3)
      (fun (s, q1, q2) ->
        let rs = Resistances.of_stack s in
        let r1 = Model_a.solve_triples rs q1 in
        let r2 = Model_a.solve_triples rs q2 in
        let r12 = Model_a.solve_triples rs (Ttsv_numerics.Vec.add q1 q2) in
        let lin i =
          Float.abs (r12.Model_a.bulk.(i) -. (r1.Model_a.bulk.(i) +. r2.Model_a.bulk.(i)))
          < 1e-9
        in
        lin 0 && lin 1 && lin 2);
    qtest ~count:40 "energy conservation on random stacks" gen_stack (fun s ->
        let r = Model_a.solve s in
        Float.abs (Model_a.sink_path_heat r -. Stack.total_heat s)
        < 1e-8 *. Stack.total_heat s);
  ]

let suite = ("model_a", unit_tests @ property_tests)
