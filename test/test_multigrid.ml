(* The multigrid hierarchy's algebraic contracts, checked on random
   anisotropic model problems: the transfer pair must be adjoint, the
   Galerkin coarse operators symmetric positive definite, the Chebyshev
   line smoother an A-norm contraction, and the two-grid cycle a real
   solver (asymptotic error contraction well under 1).  The golden and
   parallel suites pin the FV iteration counts and pool determinism;
   this one pins the linear algebra the counts depend on. *)

module Sparse = Ttsv_numerics.Sparse
module Dense = Ttsv_numerics.Dense
module Vec = Ttsv_numerics.Vec
module Multigrid = Ttsv_numerics.Multigrid
module Precond = Ttsv_numerics.Precond
module Iterative = Ttsv_numerics.Iterative
module Budget = Ttsv_parallel.Budget
open Helpers

(* 5-point anisotropic Poisson on an nx x ny tensor grid (x fastest),
   Dirichlet boundaries folded into the diagonal: SPD with coupling
   [ax] along x and [ay] along y, the model problem of every multigrid
   analysis.  Anisotropy ratios exercise the semicoarsening vote. *)
let model_poisson nx ny ~ax ~ay =
  let n = nx * ny in
  let b = Sparse.builder ~hint:(5 * n) n n in
  for i = 0 to n - 1 do
    let x = i mod nx and y = i / nx in
    if x > 0 then Sparse.add b i (i - 1) (-.ax);
    if x < nx - 1 then Sparse.add b i (i + 1) (-.ax);
    if y > 0 then Sparse.add b i (i - nx) (-.ay);
    if y < ny - 1 then Sparse.add b i (i + nx) (-.ay);
    (* Dirichlet everywhere: the diagonal keeps the full 2ax + 2ay
       stencil weight, so boundary rows are strictly dominant *)
    Sparse.add b i i ((2. *. ax) +. (2. *. ay))
  done;
  Sparse.finalize b

let build_exn ?max_levels ?coarse_cap ?nu ~shape a =
  match Multigrid.build ?max_levels ?coarse_cap ?nu ~shape a with
  | Ok h -> h
  | Error e -> Alcotest.fail ("multigrid build failed: " ^ e)

(* a deterministic pseudo-random vector, so property failures replay *)
let pseudo n seed =
  Array.init n (fun i ->
      let h = ((i + 1) * 2654435761) + (seed * 40503) in
      Float.of_int ((h land 0xffff) - 0x8000) /. 32768.)

let dot = Vec.dot
let a_norm a v = sqrt (dot v (Sparse.mat_vec a v))

(* random model problems: modest grids, anisotropy across four orders
   of magnitude in both directions *)
let gen_model =
  let open QCheck2.Gen in
  let* nx = int_range 4 24 in
  let* ny = int_range 4 24 in
  let* lax = float_range (-2.) 2. in
  let* lay = float_range (-2.) 2. in
  let* seed = int_range 0 1000 in
  return (nx, ny, 10. ** lax, 10. ** lay, seed)

let property_tests =
  [
    qtest ~count:40 "restriction and prolongation are adjoint" gen_model
      (fun (nx, ny, ax, ay, seed) ->
        let a = model_poisson nx ny ~ax ~ay in
        let h = build_exn ~coarse_cap:8 ~shape:[| nx; ny |] a in
        Multigrid.num_levels h < 2
        ||
        let nf = nx * ny in
        let nc = Array.fold_left ( * ) 1 (Multigrid.level_shape h 1) in
        let xc = pseudo nc seed and yf = pseudo nf (seed + 1) in
        let lhs = dot (Multigrid.prolong h ~level:0 xc) yf in
        let rhs = dot xc (Multigrid.restrict h ~level:0 yf) in
        Float.abs (lhs -. rhs) <= 1e-12 *. Float.max 1. (Float.abs lhs));
    qtest ~count:40 "every Galerkin coarse operator is symmetric positive definite"
      gen_model
      (fun (nx, ny, ax, ay, seed) ->
        let a = model_poisson nx ny ~ax ~ay in
        let h = build_exn ~coarse_cap:8 ~shape:[| nx; ny |] a in
        let ok = ref true in
        for l = 0 to Multigrid.num_levels h - 1 do
          let al = Multigrid.level_matrix h l in
          if not (Sparse.is_symmetric ~tol:1e-10 al) then ok := false;
          let z = pseudo (Sparse.rows al) (seed + l) in
          if dot z (Sparse.mat_vec al z) <= 0. then ok := false
        done;
        !ok);
    qtest ~count:40 "the smoother contracts the error in the A-norm" gen_model
      (fun (nx, ny, ax, ay, seed) ->
        let a = model_poisson nx ny ~ax ~ay in
        let h = build_exn ~shape:[| nx; ny |] a in
        let n = nx * ny in
        let exact = pseudo n seed in
        let b = Sparse.mat_vec a exact in
        let x1 = Multigrid.smooth h ~level:0 ~sweeps:2 (Array.make n 0.) b in
        let e1 = Array.mapi (fun i v -> v -. exact.(i)) x1 in
        (* the smoothing polynomial is 1 at eigenvalue 0 and strictly
           inside (-1, 1) on the spectrum, so the A-norm must drop *)
        a_norm a e1 < a_norm a exact);
    qtest ~count:25 "the two-grid cycle contracts errors by < 0.5" gen_model
      (fun (nx, ny, ax, ay, seed) ->
        let a = model_poisson nx ny ~ax ~ay in
        let h = build_exn ~max_levels:2 ~coarse_cap:1 ~shape:[| nx; ny |] a in
        (* solve A x = 0 from a random start: x_k is the error itself;
           measure the worst single-step A-norm contraction after the
           first few transient steps *)
        let x = ref (pseudo (nx * ny) seed) in
        let worst = ref 0. in
        for k = 1 to 10 do
          let r = Array.map (fun v -> -.v) (Sparse.mat_vec a !x) in
          let c = Multigrid.cycle h r in
          let x' = Array.mapi (fun i v -> v +. c.(i)) !x in
          let before = a_norm a !x and after = a_norm a x' in
          if k > 3 && before > 1e-200 then worst := Float.max !worst (after /. before);
          x := x'
        done;
        !worst < 0.5);
  ]

let unit_tests =
  [
    test "mg-preconditioned CG reproduces the dense direct solution" (fun () ->
        let nx = 19 and ny = 13 in
        let a = model_poisson nx ny ~ax:1. ~ay:25. in
        let b = pseudo (nx * ny) 7 in
        let direct = Dense.lu_solve (Dense.lu_factor (Sparse.to_dense a)) b in
        let pc =
          match Precond.mg ~shape:[| nx; ny |] a with
          | Ok p -> p
          | Error e -> Alcotest.fail e
        in
        let r = Iterative.cg ~tol:1e-12 ~precond:pc a b in
        Alcotest.(check bool) "converged" true r.Iterative.converged;
        Array.iteri (fun i d -> close ~tol:1e-8 (Printf.sprintf "x[%d]" i) d r.Iterative.solution.(i)) direct);
    test "level shapes shrink monotonically down the hierarchy" (fun () ->
        let nx = 32 and ny = 32 in
        let a = model_poisson nx ny ~ax:1. ~ay:1. in
        let h = build_exn ~coarse_cap:20 ~shape:[| nx; ny |] a in
        Alcotest.(check bool) "more than two levels" true (Multigrid.num_levels h > 2);
        for l = 1 to Multigrid.num_levels h - 1 do
          let prev = Multigrid.level_shape h (l - 1) in
          let cur = Multigrid.level_shape h l in
          let cells s = Array.fold_left ( * ) 1 s in
          Alcotest.(check bool)
            (Printf.sprintf "level %d smaller than level %d" l (l - 1))
            true
            (cells cur < cells prev && cur.(0) <= prev.(0) && cur.(1) <= prev.(1))
        done;
        let coarsest = Multigrid.level_shape h (Multigrid.num_levels h - 1) in
        Alcotest.(check bool) "coarsest within cap" true
          (Array.fold_left ( * ) 1 coarsest <= 20));
    test "a shape that does not match the matrix is an Error, not an exception"
      (fun () ->
        let a = model_poisson 8 8 ~ax:1. ~ay:1. in
        (match Multigrid.build ~shape:[| 8; 9 |] a with
        | Error _ -> ()
        | Ok _ -> Alcotest.fail "mismatched shape accepted");
        match Multigrid.build ~shape:[| 64 |] a with
        | Ok _ -> ()
        | Error e -> Alcotest.fail ("1-D view of the same cells rejected: " ^ e));
    test "nonsense construction arguments raise Invalid_argument" (fun () ->
        let a = model_poisson 8 8 ~ax:1. ~ay:1. in
        check_raises_invalid "nu = 0" (fun () ->
            Multigrid.build ~nu:0 ~shape:[| 8; 8 |] a);
        check_raises_invalid "max_levels = 0" (fun () ->
            Multigrid.build ~max_levels:0 ~shape:[| 8; 8 |] a);
        check_raises_invalid "coarse_cap = 0" (fun () ->
            Multigrid.build ~coarse_cap:0 ~shape:[| 8; 8 |] a));
    test "an already-spent budget turns build into an Error" (fun () ->
        let a = model_poisson 16 16 ~ax:1. ~ay:1. in
        let budget = Budget.make ~max_work:1 () in
        Budget.tick ~n:2 budget;
        match Multigrid.build ~budget ~shape:[| 16; 16 |] a with
        | Error e ->
          Alcotest.(check bool)
            (Printf.sprintf "error mentions the budget: %s" e)
            true
            (String.length e >= 6 && String.sub e 0 6 = "budget")
        | Ok _ -> Alcotest.fail "build succeeded with an expired budget");
    test "CG from an exact x0 spends one matvec and no V-cycle" (fun () ->
        (* the initial residual already meets tol, so M^-1 r0 is never
           built: the budget sees the initial matvec and nothing else *)
        let nx = 16 and ny = 16 in
        let a = model_poisson nx ny ~ax:1. ~ay:4. in
        let x0 = pseudo (nx * ny) 3 in
        let b = Sparse.mat_vec a x0 in
        let budget = Budget.make () in
        let pc =
          match Precond.mg ~budget ~shape:[| nx; ny |] a with
          | Ok p -> p
          | Error e -> Alcotest.fail e
        in
        let before = Budget.work_spent budget in
        let r = Iterative.cg ~x0 ~precond:pc ~budget a b in
        Alcotest.(check bool) "converged" true r.Iterative.converged;
        Alcotest.(check int) "iterations" 0 r.Iterative.iterations;
        Alcotest.(check int) "work spent by the solve" 1 (Budget.work_spent budget - before));
    test "cycle rejects a residual of the wrong dimension" (fun () ->
        let a = model_poisson 8 8 ~ax:1. ~ay:1. in
        let h = build_exn ~shape:[| 8; 8 |] a in
        check_raises_invalid "short residual" (fun () ->
            Multigrid.cycle h (Array.make 63 0.)));
  ]

let suite = ("multigrid", property_tests @ unit_tests)
