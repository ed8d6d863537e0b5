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
    ] )
