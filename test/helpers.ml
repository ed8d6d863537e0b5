(* Shared test utilities: float comparisons, QCheck generators for
   geometries, and the alcotest/qcheck bridging boilerplate. *)

module Units = Ttsv_physics.Units
module Plane = Ttsv_geometry.Plane
module Tsv = Ttsv_geometry.Tsv
module Stack = Ttsv_geometry.Stack

let close ?(tol = 1e-9) msg expected actual =
  let scale = Float.max 1. (Float.abs expected) in
  Alcotest.(check bool)
    (Printf.sprintf "%s: expected %.12g, got %.12g" msg expected actual)
    true
    (Float.abs (expected -. actual) <= tol *. scale)

let close_rel ?(tol = 1e-6) msg expected actual =
  Alcotest.(check bool)
    (Printf.sprintf "%s: expected %.12g, got %.12g (rtol %g)" msg expected actual tol)
    true
    (Float.abs (expected -. actual) <= tol *. Float.abs expected)

let check_raises_invalid msg f =
  match f () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail (msg ^ ": expected Invalid_argument")

let test name f = Alcotest.test_case name `Quick f

let qtest ?(count = 100) ?print name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ?print ~name gen prop)

(* Adaptive Simpson quadrature: an oracle for closed forms stated as
   integrals (eq. 9).  Local tolerance 1e-12 of the running estimate,
   at most 40 bisection levels. *)
let adaptive_simpson f a b =
  let simpson_3 a b = (b -. a) /. 6. *. (f a +. (4. *. f (0.5 *. (a +. b))) +. f b) in
  let rec refine a b whole depth tol =
    let m = 0.5 *. (a +. b) in
    let left = simpson_3 a m and right = simpson_3 m b in
    let delta = left +. right -. whole in
    if Float.abs delta <= 15. *. tol || depth >= 40 then left +. right +. (delta /. 15.)
    else refine a m left (depth + 1) (tol /. 2.) +. refine m b right (depth + 1) (tol /. 2.)
  in
  let whole = simpson_3 a b in
  refine a b whole 0 (1e-12 *. Float.max 1. (Float.abs whole))

(* --- geometry generators ------------------------------------------------- *)

(* A physically sensible random block: radius 1-15 um, liner 0.2-2 um,
   ILD 2-10 um, bond 0.5-3 um, substrates 5-80 um (500 um first plane),
   2 to 5 planes. *)
let gen_stack =
  let open QCheck2.Gen in
  let* r = float_range 1. 15. in
  let* t_liner = float_range 0.2 2. in
  let* t_ild = float_range 2. 10. in
  let* t_bond = float_range 0.5 3. in
  let* t_si = float_range 5. 80. in
  let* nplanes = int_range 2 5 in
  let tsv =
    Tsv.make ~radius:(Units.um r) ~liner_thickness:(Units.um t_liner)
      ~extension:(Units.um 1.) ()
  in
  let plane ~first =
    Plane.make
      ~t_substrate:(if first then Units.um 500. else Units.um t_si)
      ~t_ild:(Units.um t_ild)
      ~t_bond:(if first then 0. else Units.um t_bond)
      ~t_device:(Units.um 1.)
      ~device_power_density:(Units.w_per_mm3 700.)
      ~ild_power_density:(Units.w_per_mm3 70.) ()
  in
  let planes = plane ~first:true :: List.init (nplanes - 1) (fun _ -> plane ~first:false) in
  return (Stack.make ~footprint:(Units.um2 (100. *. 100.)) ~planes ~tsv ())

let gen_stack3 =
  let open QCheck2.Gen in
  let* r = float_range 1. 15. in
  let* t_liner = float_range 0.2 2. in
  let* t_si = float_range 5. 80. in
  return
    (Ttsv_core.Params.block ~r:(Units.um r) ~t_liner:(Units.um t_liner)
       ~t_si23:(Units.um t_si) ())

(* random positive heat triple, W *)
let gen_heats3 =
  let open QCheck2.Gen in
  let* q1 = float_range 1e-3 0.1 in
  let* q2 = float_range 1e-3 0.1 in
  let* q3 = float_range 1e-3 0.1 in
  return [| q1; q2; q3 |]

(* --- linear algebra generators ------------------------------------------ *)

(* strictly diagonally dominant random matrix: always nonsingular and safe
   for pivotless algorithms *)
let gen_diag_dominant n =
  let open QCheck2.Gen in
  let* entries = array_size (return (n * n)) (float_range (-1.) 1.) in
  return
    (Ttsv_numerics.Dense.init n n (fun i j ->
         let x = entries.((i * n) + j) in
         if i = j then 0. else x)
    |> fun m ->
    let row_sum i =
      let acc = ref 0. in
      for j = 0 to n - 1 do
        acc := !acc +. Float.abs (Ttsv_numerics.Dense.get m i j)
      done;
      !acc
    in
    Ttsv_numerics.Dense.init n n (fun i j ->
        if i = j then row_sum i +. 1. else Ttsv_numerics.Dense.get m i j))

let gen_vec n = QCheck2.Gen.(array_size (return n) (float_range (-10.) 10.))

(* random symmetric positive-definite sparse matrix built as a resistive
   grid-like graph plus diagonal anchoring *)
let gen_spd n =
  let open QCheck2.Gen in
  let* weights = array_size (return n) (float_range 0.1 10.) in
  let* anchors = array_size (return n) (float_range 0.1 5.) in
  let b = Ttsv_numerics.Sparse.builder n n in
  for i = 0 to n - 2 do
    let g = weights.(i) in
    Ttsv_numerics.Sparse.add b i i g;
    Ttsv_numerics.Sparse.add b (i + 1) (i + 1) g;
    Ttsv_numerics.Sparse.add b i (i + 1) (-.g);
    Ttsv_numerics.Sparse.add b (i + 1) i (-.g)
  done;
  for i = 0 to n - 1 do
    Ttsv_numerics.Sparse.add b i i anchors.(i)
  done;
  return (Ttsv_numerics.Sparse.finalize b)

(* --- Model A's walk through the generic circuit ------------------------- *)

(* The eq. 1-6 walk fed to a Circuit: one circuit node per ladder node, in
   the walk's numbering, and [qs] injected at the bulk nodes. *)
let walk_circuit (rs : Ttsv_core.Resistances.t) qs =
  let module Circuit = Ttsv_network.Circuit in
  let c = Circuit.create () in
  let nodes =
    Array.init
      (2 * Array.length rs.Ttsv_core.Resistances.triples)
      (fun k -> Circuit.add_node c (string_of_int k))
  in
  let node k = if k < 0 then Circuit.ground c else nodes.(k) in
  Ttsv_core.Model_a.walk rs ~resistor:(fun i j r -> Circuit.add_resistor c (node i) (node j) r);
  Array.iteri (fun i q -> Circuit.add_heat_source c nodes.((2 * i) + 1) q) qs;
  (c, nodes)
