(* Tests for preconditioned CG and its health guards. *)

module Sparse = Ttsv_numerics.Sparse
module Iterative = Ttsv_numerics.Iterative
module Dense = Ttsv_numerics.Dense
module Vec = Ttsv_numerics.Vec
open Helpers

let gen_spd_system n =
  QCheck2.Gen.(gen_spd n >>= fun m -> gen_vec n >|= fun b -> (m, b))

let solves_to solver (m, b) =
  let r = solver m b in
  r.Iterative.converged
  && Vec.norm_inf (Vec.sub (Sparse.mat_vec m r.Iterative.solution) b)
     < 1e-6 *. Float.max 1. (Vec.norm_inf b)

let unit_tests =
  [
    test "cg solves identity" (fun () ->
        let m = Sparse.of_dense (Dense.identity 4) in
        let r = Iterative.cg m [| 1.; 2.; 3.; 4. |] in
        Alcotest.(check bool) "converged" true r.Iterative.converged;
        close "x2" 3. r.Iterative.solution.(2));
    test "cg zero rhs gives zero" (fun () ->
        let m = Sparse.of_dense (Dense.identity 3) in
        let r = Iterative.cg m [| 0.; 0.; 0. |] in
        close "norm" 0. (Vec.norm_inf r.Iterative.solution));
    test "rhs dimension mismatch" (fun () ->
        let m = Sparse.of_dense (Dense.identity 2) in
        check_raises_invalid "dim" (fun () -> ignore (Iterative.cg m [| 1. |])));
    test "cg breakdown reports the true residual" (fun () ->
        (* diag(1, -1) is indefinite: p.Ap = 0 on the very first step, so
           the loop aborts before updating x.  The reported residual must
           be the recomputed ||b - A x|| / ||b|| = 1, not a stale
           recurrence value, and converged must agree with it. *)
        let b = Sparse.builder 2 2 in
        Sparse.add b 0 0 1.;
        Sparse.add b 1 1 (-1.);
        let m = Sparse.finalize b in
        let r = Iterative.cg ~tol:1e-10 m [| 1.; 1. |] in
        (match r.Iterative.status with
        | Iterative.Breakdown _ -> ()
        | s -> Alcotest.failf "expected Breakdown, got %a" Iterative.pp_status s);
        Alcotest.(check bool) "not converged" false r.Iterative.converged;
        close "true residual" 1. r.Iterative.residual);
    test "cg stagnating on an ill-conditioned system aborts long before the budget"
      (fun () ->
        (* the 12x12 Hilbert matrix (condition ~1e16) with an unreachable
           tolerance: CG floors well above tol and the stagnation guard
           must end the solve in a window's worth of iterations, not let
           it burn the whole budget *)
        let n = 12 in
        let b = Sparse.builder n n in
        for i = 0 to n - 1 do
          for j = 0 to n - 1 do
            Sparse.add b i j (1. /. Float.of_int (i + j + 1))
          done
        done;
        let m = Sparse.finalize b in
        let rhs = Array.init n (fun i -> 1. /. Float.of_int (i + 1)) in
        let max_iter = 100_000 in
        (* the divergence guard is disarmed so the (also-valid) abort it
           would produce on recurrence noise cannot shadow the stagnation
           one under test *)
        let r =
          Iterative.cg ~tol:1e-20 ~max_iter ~stagnation_window:50 ~divergence_factor:1e300
            m rhs
        in
        (match r.Iterative.status with
        | Iterative.Stagnated _ -> ()
        | s -> Alcotest.failf "expected Stagnated, got %a" Iterative.pp_status s);
        Alcotest.(check bool)
          (Printf.sprintf "aborted early (%d iterations)" r.Iterative.iterations)
          true
          (r.Iterative.iterations < max_iter / 100));
    test "cg divergence guard trips when the recurrence blows up" (fun () ->
        (* same floored Hilbert solve, but with the stagnation guard
           disarmed instead: the residual recurrence drifts orders of
           magnitude above the best seen and the divergence guard fires *)
        let n = 12 in
        let b = Sparse.builder n n in
        for i = 0 to n - 1 do
          for j = 0 to n - 1 do
            Sparse.add b i j (1. /. Float.of_int (i + j + 1))
          done
        done;
        let m = Sparse.finalize b in
        let rhs = Array.init n (fun i -> 1. /. Float.of_int (i + 1)) in
        let max_iter = 100_000 in
        let r = Iterative.cg ~tol:1e-20 ~max_iter ~stagnation_window:max_iter m rhs in
        (match r.Iterative.status with
        | Iterative.Diverged factor ->
          Alcotest.(check bool) "grew past the threshold" true (factor > 1e4)
        | s -> Alcotest.failf "expected Diverged, got %a" Iterative.pp_status s);
        Alcotest.(check bool)
          (Printf.sprintf "aborted early (%d iterations)" r.Iterative.iterations)
          true
          (r.Iterative.iterations < max_iter / 100));
  ]

let property_tests =
  [
    qtest ~count:40 "cg solves SPD systems" (gen_spd_system 15)
      (solves_to (fun m b -> Iterative.cg ~tol:1e-12 m b));
    qtest ~count:30 "cg matches dense LU" (gen_spd_system 12) (fun (m, b) ->
        let r = Iterative.cg ~tol:1e-13 m b in
        let exact = Dense.solve (Sparse.to_dense m) b in
        Vec.approx_equal ~rtol:1e-6 ~atol:1e-8 r.Iterative.solution exact);
    qtest ~count:20 "warm start from the solution converges immediately" (gen_spd_system 10)
      (fun (m, b) ->
        let r1 = Iterative.cg ~tol:1e-13 m b in
        let r2 = Iterative.cg ~tol:1e-10 ~x0:r1.Iterative.solution m b in
        r2.Iterative.iterations = 0 && r2.Iterative.converged);
    (* the service solution cache's contract: on a reused operator with a
       nearby right-hand side, seeding from the cached solution can only
       save iterations, never add them *)
    qtest ~count:30 "warm start on a reused operator never adds iterations"
      (gen_spd_system 12)
      (fun (m, b) ->
        let cold = Iterative.cg ~tol:1e-10 m b in
        let b' = Array.map (fun v -> v *. (1. +. 1e-8)) b in
        let cold' = Iterative.cg ~tol:1e-10 m b' in
        let warm = Iterative.cg ~tol:1e-10 ~x0:cold.Iterative.solution m b' in
        warm.Iterative.converged
        && warm.Iterative.iterations <= cold'.Iterative.iterations);
  ]

let suite = ("iterative", unit_tests @ property_tests)
