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
    test "bare cg on a NaN rhs or an Inf matrix stops typed after one iteration" (fun () ->
        (* cg leaves the input scan to Robust.solve's preflight; on its
           own it must still stop at the first non-finite residual *)
        let expect what r =
          (match r.Iterative.status with
          | Iterative.Non_finite "iterates" -> ()
          | s ->
            Alcotest.failf "%s: expected Non_finite iterates, got %a" what Iterative.pp_status s);
          Alcotest.(check bool) (what ^ ": not converged") false r.Iterative.converged;
          Alcotest.(check int) (what ^ ": iterations") 1 r.Iterative.iterations
        in
        let id = Sparse.of_dense (Dense.identity 3) in
        expect "NaN rhs" (Iterative.cg id [| 1.; Float.nan; 3. |]);
        let b = Sparse.builder 3 3 in
        Sparse.add b 0 0 Float.infinity;
        Sparse.add b 1 1 1.;
        Sparse.add b 2 2 1.;
        expect "Inf matrix" (Iterative.cg (Sparse.finalize b) [| 1.; 2.; 3. |]));
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

(* [relative_residual] is one fused pass; it must equal, bit for bit,
   the composition it replaced: a matvec, a subtraction and the chunked
   norm.  Lengths straddle Vec.reduce_chunk (2048) and span three
   chunks; the pooled runs sit inside a region, where a kernel goes
   parallel from 2048 elements up. *)
let composed_residual ?pool a b x =
  Vec.pnorm2 ?pool (Vec.sub b (Sparse.mul ?pool a x)) /. Float.max (Vec.norm2 b) 1e-300

let residual_case =
  QCheck2.Gen.(
    oneofl [ 2047; 2048; 2049; 5000 ] >>= fun n ->
    triple (gen_spd n) (gen_vec n) (gen_vec n))

let same_bits a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

let residual_tests =
  [
    qtest ~count:12 "relative_residual is the composed residual bit for bit, sequential"
      residual_case (fun (a, b, x) ->
        same_bits (Iterative.relative_residual a b x) (composed_residual a b x));
    qtest ~count:12 "relative_residual is the composed residual bit for bit, 2-domain pool"
      residual_case (fun (a, b, x) ->
        Ttsv_parallel.Pool.with_pool ~domains:2 (fun pool ->
            Ttsv_parallel.Pool.with_region pool (fun () ->
                let fused = Iterative.relative_residual ~pool a b x in
                same_bits fused (composed_residual ~pool a b x)
                && same_bits fused (composed_residual a b x))));
    test "relative_residual rejects an x or b longer than the matrix" (fun () ->
        (* the fused pass never indexes past the matrix's order, so only
           the explicit length checks catch these *)
        let m = Sparse.of_dense (Dense.identity 2) in
        check_raises_invalid "x" (fun () ->
            ignore (Iterative.relative_residual m [| 1.; 1. |] [| 1.; 1.; 1. |]));
        check_raises_invalid "b" (fun () ->
            ignore (Iterative.relative_residual m [| 1.; 1.; 1. |] [| 1.; 1. |])));
  ]

(* CG's two fused passes against the kernels they replaced, bit for bit:
   [mul_dot] against [Sparse.mul] then [Vec.pdot], [update_sumsq]
   against the fused axpy pair CG ran before (kept here as the
   reference) then [Vec.pnorm2].  Same lengths and pool as the residual
   properties above. *)
let reference_axpy2 ?pool alpha p q x r =
  Ttsv_parallel.Pool.for_chunks ~chunk:Vec.reduce_chunk
    (Option.value pool ~default:Ttsv_parallel.Pool.seq)
    (Array.length x)
    (fun ~lo ~hi ->
      for i = lo to hi - 1 do
        x.(i) <- (alpha *. p.(i)) +. x.(i);
        r.(i) <- r.(i) -. (alpha *. q.(i))
      done)

let same_vec a b =
  Array.length a = Array.length b
  && Array.for_all2 (fun u v -> Int64.equal (Int64.bits_of_float u) (Int64.bits_of_float v)) a b

let mul_dot_matches ?pool (a, p, _) =
  let ap = Array.make (Array.length p) Float.nan in
  let fused = Iterative.mul_dot ?pool a p ap in
  let reference = Sparse.mul ?pool a p in
  same_vec ap reference && same_bits fused (Vec.pdot ?pool p reference)

let update_case =
  QCheck2.Gen.(
    oneofl [ 2047; 2048; 2049; 5000 ] >>= fun n ->
    quad (float_range (-2.) 2.) (gen_vec n) (gen_vec n) (pair (gen_vec n) (gen_vec n)))

(* the fused pass under [pool] against the reference composition run
   under [pool] and run sequentially *)
let update_sumsq_matches ?pool (alpha, p, ap, (x, r)) =
  let reference pool =
    let x' = Array.copy x and r' = Array.copy r in
    reference_axpy2 ?pool alpha p ap x' r';
    (x', r', Vec.pdot ?pool r' r', Vec.pnorm2 ?pool r')
  in
  let refs = [ reference pool; reference None ] in
  let sumsq = Iterative.update_sumsq ?pool alpha p ap x r in
  List.for_all
    (fun (x', r', dot, norm) ->
      same_vec x x' && same_vec r r' && same_bits sumsq dot && same_bits (sqrt sumsq) norm)
    refs

let pooled f =
  Ttsv_parallel.Pool.with_pool ~domains:2 (fun pool ->
      Ttsv_parallel.Pool.with_region pool (fun () -> f pool))

let fused_tests =
  [
    qtest ~count:12 "mul_dot is Sparse.mul then Vec.pdot bit for bit, sequential" residual_case
      (fun c -> mul_dot_matches c);
    qtest ~count:12 "mul_dot is Sparse.mul then Vec.pdot bit for bit, 2-domain pool"
      residual_case (fun c -> pooled (fun pool -> mul_dot_matches ~pool c && mul_dot_matches c));
    qtest ~count:12 "update_sumsq is the axpy pair then Vec.pnorm2 bit for bit, sequential"
      update_case (fun c -> update_sumsq_matches c);
    qtest ~count:12 "update_sumsq is the axpy pair then Vec.pnorm2 bit for bit, 2-domain pool"
      update_case (fun c -> pooled (fun pool -> update_sumsq_matches ~pool c));
    test "the fused kernels reject mismatched lengths" (fun () ->
        let m = Sparse.of_dense (Dense.identity 2) in
        let v2 = [| 1.; 1. |] and v3 = [| 1.; 1.; 1. |] in
        check_raises_invalid "mul_dot p" (fun () -> ignore (Iterative.mul_dot m v3 v2));
        check_raises_invalid "mul_dot ap" (fun () -> ignore (Iterative.mul_dot m v2 v3));
        check_raises_invalid "update_sumsq" (fun () ->
            ignore (Iterative.update_sumsq 1. v2 v2 v3 v2)));
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

let suite = ("iterative", unit_tests @ residual_tests @ fused_tests @ property_tests)
