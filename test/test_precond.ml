(* Preconditioner correctness: IC(0)-preconditioned CG agrees with
   the dense direct solve on the paper's Table I grids, preconditioning
   never costs iterations on random SPD systems, and IC(0) breakdown
   retries with growing diagonal shifts instead of giving up. *)

module Vec = Ttsv_numerics.Vec
module Sparse = Ttsv_numerics.Sparse
module Dense = Ttsv_numerics.Dense
module Precond = Ttsv_numerics.Precond
module Iterative = Ttsv_numerics.Iterative
module Units = Ttsv_physics.Units
module Params = Ttsv_core.Params
module Problem = Ttsv_fem.Problem
module Solver = Ttsv_fem.Solver
open Helpers

let get_ok what = function
  | Ok m -> m
  | Error why -> Alcotest.fail (Printf.sprintf "%s: construction failed: %s" what why)

(* dense tridiagonal SPD fixture: IC(0) on a tridiagonal matrix is the
   exact Cholesky factorization, so [apply] must invert it exactly *)
let tridiag_spd n =
  let b = Sparse.builder n n in
  for i = 0 to n - 1 do
    Sparse.add b i i (4. +. (0.1 *. float_of_int i));
    if i + 1 < n then begin
      Sparse.add b i (i + 1) (-1.);
      Sparse.add b (i + 1) i (-1.)
    end
  done;
  Sparse.finalize b

let sparse_of_dense rows =
  let n = Array.length rows in
  let b = Sparse.builder n n in
  Array.iteri
    (fun i row -> Array.iteri (fun j v -> if v <> 0. then Sparse.add b i j v) row)
    rows;
  Sparse.finalize b

(* --- Table I grid agreement with the dense direct solve ------------------ *)

(* the Table I sweep varies the TSV radius; resolution 1 keeps the grid
   (n = 1020) small enough to factor densely as the reference *)
let table1_grids () =
  List.map
    (fun r_um ->
      let stack = Params.block ~r:(Units.um r_um) () in
      let p = Problem.of_stack stack in
      let a = Solver.assemble p in
      (Printf.sprintf "r=%gum" r_um, a, p.Problem.source))
    [ 2.; 5.; 10. ]

let check_matches_direct name make_precond =
  List.iter
    (fun (grid, a, b) ->
      let exact = Dense.solve (Sparse.to_dense a) b in
      let m = make_precond a in
      let r = Iterative.cg ~tol:1e-13 ~precond:m a b in
      Alcotest.(check bool)
        (Printf.sprintf "%s converged on %s" name grid)
        true r.Iterative.converged;
      let scale = Float.max 1e-300 (Vec.norm_inf exact) in
      let diff = Vec.norm_inf (Vec.sub r.Iterative.solution exact) /. scale in
      Alcotest.(check bool)
        (Printf.sprintf "%s matches dense direct on %s (rel diff %.3g)" name grid diff)
        true
        (diff <= 1e-8))
    (table1_grids ())

let test_ic0_matches_direct () =
  check_matches_direct "IC(0)-CG" (fun a -> get_ok "ic0" (Precond.ic0 a))

(* --- preconditioning never costs iterations (qcheck) --------------------- *)

(* random SPD tridiagonal-perturbed system (resistive chain + anchors):
   IC(0)-CG must converge in no more iterations than unpreconditioned CG
   (identity preconditioner) *)
let gen_spd_system =
  let open QCheck2.Gen in
  let* n = int_range 10 60 in
  let* a = gen_spd n in
  let* b = gen_vec n in
  return (n, a, b)

let prop_preconditioned_no_worse (n, a, b) =
  let tol = 1e-10 and max_iter = 20 * n in
  let solve precond =
    let r = Iterative.cg ~tol ~max_iter ~precond a b in
    if not r.Iterative.converged then
      QCheck2.Test.fail_reportf "CG (%s) failed to converge" (Precond.name precond);
    r.Iterative.iterations
  in
  let identity = Precond.jacobi_of_diagonal (Array.make n 1.) in
  let plain = solve identity in
  let ic0 = solve (get_ok "ic0" (Precond.ic0 a)) in
  if ic0 > plain then
    QCheck2.Test.fail_reportf "IC(0)-CG took %d iterations, plain CG %d" ic0 plain;
  true

(* --- IC(0) breakdown and shift retry ------------------------------------- *)

let test_ic0_spd_no_shift () =
  let a = tridiag_spd 12 in
  let m = get_ok "ic0" (Precond.ic0 a) in
  Alcotest.(check (option (float 0.)))
    "SPD factorization needs no shift" (Some 0.) (Precond.ic0_shift m)

let test_ic0_breakdown_retries_shift () =
  (* symmetric indefinite with positive diagonal: the unshifted pivot is
     5 - 36/4 < 0, and only the last relative shift (1.0) rescues it *)
  let a = sparse_of_dense [| [| 4.; 6. |]; [| 6.; 5. |] |] in
  let m = get_ok "ic0" (Precond.ic0 a) in
  Alcotest.(check (option (float 0.)))
    "breakdown retried up to shift 1.0" (Some 1.) (Precond.ic0_shift m)

let test_ic0_all_shifts_fail () =
  (* pivot is a_11 (1 + s) - 9 / (1 + s): negative for every default
     shift (still -2.5 at s = 1), so construction must report the error *)
  let a = sparse_of_dense [| [| 1.; 3. |]; [| 3.; 1. |] |] in
  match Precond.ic0 a with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected breakdown at every shift"

let test_ic0_missing_diagonal () =
  let a = sparse_of_dense [| [| 0.; 1. |]; [| 1.; 0. |] |] in
  match Precond.ic0 a with
  | Error why ->
    Alcotest.(check bool)
      (Printf.sprintf "error mentions the diagonal: %s" why)
      true
      (String.length why > 0)
  | Ok _ -> Alcotest.fail "expected missing-diagonal error"

(* --- apply semantics ------------------------------------------------------ *)

let test_ic0_exact_on_tridiagonal () =
  (* zero fill loses nothing on a tridiagonal pattern: IC(0) is the full
     Cholesky factorization and apply is an exact solve *)
  let n = 8 in
  let a = tridiag_spd n in
  let b = Array.init n (fun i -> float_of_int (i + 1)) in
  let exact = Dense.solve (Sparse.to_dense a) b in
  let m = get_ok "ic0" (Precond.ic0 a) in
  let x = Precond.apply m b in
  Array.iteri (fun i e -> close ~tol:1e-12 (Printf.sprintf "x[%d]" i) e x.(i)) exact

let test_jacobi_apply_scales_by_diagonal () =
  let a = tridiag_spd 5 in
  let d = Sparse.diagonal a in
  let b = Array.init 5 (fun i -> 1. +. float_of_int i) in
  let x = Precond.apply (Precond.jacobi a) b in
  Array.iteri (fun i bi -> close ~tol:1e-15 (Printf.sprintf "x[%d]" i) (bi /. d.(i)) x.(i)) b

let test_apply_dimension_mismatch () =
  let m = get_ok "ic0" (Precond.ic0 (tridiag_spd 6)) in
  check_raises_invalid "wrong dimension" (fun () -> Precond.apply m (Array.make 5 1.))

let test_cg_precond_dimension_mismatch () =
  let a = tridiag_spd 6 in
  let m = get_ok "ic0" (Precond.ic0 (tridiag_spd 5)) in
  check_raises_invalid "cg rejects mismatched preconditioner" (fun () ->
      Iterative.cg ~precond:m a (Array.make 6 1.))

(* IC(0) earns its place as the ladder's first rung: on the fig. 5
   stack at resolution 1 (the small precond bench's grid) it needs under
   half the Jacobi-CG iterations.  Iteration counts are deterministic,
   so the bound cannot flake. *)
let test_ic0_halves_jacobi_iterations () =
  let p = Problem.of_stack ~resolution:1 (Params.fig5_stack (Units.um 1.)) in
  let iterations rung = (Solver.solve ~rungs:[ rung ] p).Solver.iterations in
  let ic0 = iterations Ttsv_robust.Diagnostics.Cg_ic0
  and jacobi = iterations Ttsv_robust.Diagnostics.Cg in
  Alcotest.(check bool)
    (Printf.sprintf "IC(0)-CG %d < 0.5 x Jacobi-CG %d iterations" ic0 jacobi)
    true
    (ic0 > 0 && 2 * ic0 < jacobi)

(* Sparse.diagonal and the inverse diagonal are index loops: as
   closure-returning Array.init and Array.map they boxed one float per row
   each, 45,914 minor words for this operator (n = 7,650) *)
let test_jacobi_setup_allocation () =
  let a = Solver.assemble (Problem.of_stack ~resolution:3 (Params.block ())) in
  let before = Gc.minor_words () in
  let m = Precond.jacobi a in
  let words = Gc.minor_words () -. before in
  Alcotest.(check int) "dimension" (Sparse.rows a) (Precond.dim m);
  Alcotest.(check bool) (Printf.sprintf "%.0f minor words <= 1000" words) true (words <= 1000.)

(* --- one workspace, reciprocal pivots ---------------------------------- *)

(* [apply_into] writes the bits [apply] returns, whatever [z] held
   before, for every construction, sequentially and on a 2-domain pool.
   The operators are gen_spd's 1-D chains, so mg builds on shape [|n|]. *)
let same_vec a b =
  Array.length a = Array.length b
  && Array.for_all2 (fun u v -> Int64.equal (Int64.bits_of_float u) (Int64.bits_of_float v)) a b

let apply_case =
  QCheck2.Gen.(
    oneofl [ 2047; 2048; 2049; 5000 ] >>= fun n -> pair (gen_spd n) (gen_vec n))

let constructions a =
  [
    Precond.jacobi a;
    get_ok "ic0" (Precond.ic0 a);
    get_ok "mg" (Precond.mg ~shape:[| Sparse.rows a |] a);
  ]

let apply_into_matches ?pool (a, r) =
  List.for_all
    (fun m ->
      let z = Array.make (Array.length r) Float.nan in
      Precond.apply_into ?pool m r z;
      same_vec z (Precond.apply ?pool m r) && same_vec z (Precond.apply m r))
    (constructions a)

let test_apply_into_rejects_lengths () =
  let m = get_ok "ic0" (Precond.ic0 (tridiag_spd 6)) in
  check_raises_invalid "short z" (fun () ->
      Precond.apply_into m (Array.make 6 1.) (Array.make 5 0.));
  check_raises_invalid "short r" (fun () ->
      Precond.apply_into m (Array.make 5 1.) (Array.make 6 0.))

(* The reference IC(0) of the test: the factorization on a dense copy,
   restricted to A's stored lower pattern, then both triangular sweeps
   dividing by the pivot L[i,i].  The library's sweeps multiply by a
   stored 1 / L[i,i] instead; the two must agree to rounding. *)
let ic0_divide_reference a r =
  let n = Sparse.rows a in
  let l = Array.make_matrix n n 0. in
  for i = 0 to n - 1 do
    Sparse.iter_row a i (fun j v ->
        if j <= i then begin
          let s = ref 0. in
          for k = 0 to j - 1 do
            s := !s +. (l.(i).(k) *. l.(j).(k))
          done;
          l.(i).(j) <- (if j < i then (v -. !s) /. l.(j).(j) else sqrt (v -. !s))
        end)
  done;
  let y = Array.make n 0. in
  for i = 0 to n - 1 do
    let acc = ref r.(i) in
    for k = 0 to i - 1 do
      acc := !acc -. (l.(i).(k) *. y.(k))
    done;
    y.(i) <- !acc /. l.(i).(i)
  done;
  for i = n - 1 downto 0 do
    let zi = y.(i) /. l.(i).(i) in
    y.(i) <- zi;
    for k = 0 to i - 1 do
      y.(k) <- y.(k) -. (l.(i).(k) *. zi)
    done
  done;
  y

let test_reciprocal_pivots_match_divide_form () =
  List.iter
    (fun (what, a) ->
      let m = get_ok what (Precond.ic0 a) in
      Alcotest.(check (option (float 0.))) (what ^ ": unshifted") (Some 0.) (Precond.ic0_shift m);
      let n = Sparse.rows a in
      let r = Array.init n (fun i -> 1. +. float_of_int (i mod 7)) in
      let z = Precond.apply m r and reference = ic0_divide_reference a r in
      let err = Vec.norm_inf (Vec.sub z reference) /. Vec.norm_inf reference in
      Alcotest.(check bool) (Printf.sprintf "%s: relative difference %.3g <= 1e-13" what err) true
        (err <= 1e-13))
    [
      ( "fig5 res 1",
        Solver.assemble (Problem.of_stack ~resolution:1 (Params.fig5_stack (Units.um 1.))) );
      ("tridiagonal", tridiag_spd 50);
    ]

(* reciprocal pivots move M^-1 r in its last bits only: IC(0)-CG on the
   fig. 5 stack takes the iterations it took with divide-form sweeps *)
let test_ic0_iteration_counts () =
  List.iter
    (fun (resolution, expected) ->
      let p = Problem.of_stack ~resolution (Params.fig5_stack (Units.um 1.)) in
      let r = Solver.solve ~rungs:[ Ttsv_robust.Diagnostics.Cg_ic0 ] p in
      Alcotest.(check int) (Printf.sprintf "res %d iterations" resolution) expected
        r.Solver.iterations)
    [ (1, 69); (2, 119); (3, 161) ]

(* a cold IC(0)-CG solve allocates its vectors once: x, r, M^-1 r, p,
   Ap and the start's matvec, ~6n words on the major heap.  With two
   fresh n-vectors per iteration it put ~326n there (161 iterations). *)
let test_cg_workspace_allocation () =
  let p = Problem.of_stack ~resolution:3 (Params.fig5_stack (Units.um 1.)) in
  let a = Solver.assemble p in
  let n = Sparse.rows a in
  let m = get_ok "ic0" (Precond.ic0 a) in
  let _, _, major_before = Gc.counters () in
  let r = Iterative.cg ~precond:m a p.Problem.source in
  let _, _, major_after = Gc.counters () in
  let words = major_after -. major_before in
  Alcotest.(check bool) "converged" true r.Iterative.converged;
  Alcotest.(check bool)
    (Printf.sprintf "%.0f major words <= 8n = %d" words (8 * n))
    true
    (words <= float_of_int (8 * n))

let suite =
  ( "precond",
    [
      test "IC(0)-CG matches dense direct on Table I grids" test_ic0_matches_direct;
      qtest ~count:50 "preconditioned CG needs no more iterations than plain CG"
        gen_spd_system prop_preconditioned_no_worse;
      test "IC(0) on SPD input uses no diagonal shift" test_ic0_spd_no_shift;
      test "IC(0) breakdown retries with growing shifts" test_ic0_breakdown_retries_shift;
      test "IC(0) reports breakdown when every shift fails" test_ic0_all_shifts_fail;
      test "IC(0) rejects a row without a stored diagonal" test_ic0_missing_diagonal;
      test "IC(0) is exact Cholesky on a tridiagonal matrix" test_ic0_exact_on_tridiagonal;
      test "Jacobi apply divides by the diagonal" test_jacobi_apply_scales_by_diagonal;
      test "apply rejects dimension mismatch" test_apply_dimension_mismatch;
      test "cg rejects mismatched preconditioner" test_cg_precond_dimension_mismatch;
      test "IC(0)-CG needs under half the Jacobi-CG iterations on fig. 5"
        test_ic0_halves_jacobi_iterations;
      test "Jacobi setup of the res-3 operator allocates <= 1,000 minor words"
        test_jacobi_setup_allocation;
      qtest ~count:8 "apply_into writes apply's bits, sequential" apply_case (fun c ->
          apply_into_matches c);
      qtest ~count:8 "apply_into writes apply's bits, 2-domain pool" apply_case (fun c ->
          Ttsv_parallel.Pool.with_pool ~domains:2 (fun pool ->
              Ttsv_parallel.Pool.with_region pool (fun () -> apply_into_matches ~pool c)));
      test "apply_into rejects a vector of the wrong length" test_apply_into_rejects_lengths;
      test "IC(0) with reciprocal pivots matches divide-form sweeps to 1e-13"
        test_reciprocal_pivots_match_divide_form;
      test "IC(0)-CG iteration counts on fig. 5 at res 1-3 are 69, 119, 161"
        test_ic0_iteration_counts;
      test "a cold IC(0)-CG solve at res 3 puts <= 8n words on the major heap"
        test_cg_workspace_allocation;
    ] )
