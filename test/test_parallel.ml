(* Determinism suite for the domain-pool layer: pooled execution must be
   indistinguishable from sequential execution.  Kernels with disjoint
   writes (parallel_for, Sparse.mul, paxpy, assembly) and ordered sweeps
   must agree bit for bit across every domain count; chunk-grouped
   reductions (pdot) must agree bit for bit with the pool's own
   sequential fallback and within 1e-12 relative of a plain fold. *)

module Pool = Ttsv_parallel.Pool
module Vec = Ttsv_numerics.Vec
module Sparse = Ttsv_numerics.Sparse
module Iterative = Ttsv_numerics.Iterative
module Precond = Ttsv_numerics.Precond
module Multigrid = Ttsv_numerics.Multigrid
module Problem = Ttsv_fem.Problem
module Solver = Ttsv_fem.Solver
module Problem3 = Ttsv_fem.Problem3
module Solver3 = Ttsv_fem.Solver3
module Allocation = Ttsv_chip.Allocation
module Chip_model = Ttsv_chip.Chip_model
module Power_map = Ttsv_chip.Power_map
module Stack = Ttsv_geometry.Stack
module Params = Ttsv_core.Params
module Units = Ttsv_physics.Units
module E = Ttsv_experiments
open Helpers

let domain_counts = [ 1; 2; 4 ]

(* odd sizes on purpose: 1 (degenerate), 7 (single chunk), 1023/4097
   (partial last chunk on either side of the parallel cutoff) *)
let sizes = [ 1; 7; 1023; 4097 ]

let vec n = Array.init n (fun i -> sin (float_of_int i *. 0.7) +. (0.01 *. float_of_int i))

let check_float_array msg a b =
  Alcotest.(check (array (float 0.))) msg a b

let pool_tests =
  [
    test "create/domains/shutdown" (fun () ->
        let p = Pool.create ~domains:3 () in
        Alcotest.(check int) "domains" 3 (Pool.domains p);
        Pool.shutdown p;
        Pool.shutdown p (* idempotent *);
        check_raises_invalid "use after shutdown" (fun () ->
            Pool.parallel_for p 10 (fun _ -> ()));
        check_raises_invalid "too many domains" (fun () ->
            ignore (Pool.create ~domains:1000 ()));
        (* no cap below the request, whatever the host's core count *)
        let p8 = Pool.create ~domains:8 () in
        Alcotest.(check int) "exactly the requested domains" 8 (Pool.domains p8);
        Pool.shutdown p8;
        Alcotest.(check int) "seq is one domain" 1 (Pool.domains Pool.seq));
    test "parallel_for visits every index exactly once" (fun () ->
        List.iter
          (fun d ->
            Pool.with_pool ~domains:d @@ fun pool ->
            List.iter
              (fun n ->
                let counts = Array.make n 0 in
                Pool.parallel_for ~chunk:16 ~min_size:2 pool n (fun i ->
                    counts.(i) <- counts.(i) + 1);
                Alcotest.(check bool)
                  (Printf.sprintf "once each (domains=%d n=%d)" d n)
                  true
                  (Array.for_all (fun c -> c = 1) counts))
              sizes)
          domain_counts);
    test "for_chunks covers [0, n) with identical chunks at any domain count" (fun () ->
        let bounds pool n =
          let acc = ref [] in
          let m = Mutex.create () in
          Pool.for_chunks ~chunk:100 ~min_size:2 pool n (fun ~lo ~hi ->
              Mutex.protect m (fun () -> acc := (lo, hi) :: !acc));
          List.sort compare !acc
        in
        List.iter
          (fun n ->
            let reference = bounds Pool.seq n in
            List.iter
              (fun d ->
                Pool.with_pool ~domains:d @@ fun pool ->
                Alcotest.(check (list (pair int int)))
                  (Printf.sprintf "chunks (domains=%d n=%d)" d n)
                  reference (bounds pool n))
              domain_counts)
          sizes);
    test "map_reduce equals the sequential fallback exactly" (fun () ->
        List.iter
          (fun n ->
            let x = vec n in
            let sum pool =
              Pool.map_reduce ~chunk:64 ~min_size:2 pool ~n
                ~map:(fun ~lo ~hi ->
                  let acc = ref 0. in
                  for i = lo to hi - 1 do
                    acc := !acc +. x.(i)
                  done;
                  !acc)
                ~reduce:( +. ) ~init:0.
            in
            let reference = sum Pool.seq in
            List.iter
              (fun d ->
                Pool.with_pool ~domains:d @@ fun pool ->
                Alcotest.(check (float 0.))
                  (Printf.sprintf "sum (domains=%d n=%d)" d n)
                  reference (sum pool))
              domain_counts)
          sizes);
    test "map_array preserves input order" (fun () ->
        Pool.with_pool ~domains:4 @@ fun pool ->
        let xs = Array.init 37 (fun i -> i) in
        Alcotest.(check (array int))
          "squares in order"
          (Array.map (fun i -> i * i) xs)
          (Pool.map_array pool (fun i -> i * i) xs));
    test "exceptions propagate out of a region" (fun () ->
        Pool.with_pool ~domains:4 @@ fun pool ->
        (match Pool.parallel_for ~chunk:8 ~min_size:2 pool 5000 (fun i ->
                 if i = 4099 then failwith "boom")
         with
        | () -> Alcotest.fail "expected Failure"
        | exception Failure m -> Alcotest.(check string) "message" "boom" m);
        (* the pool survives a failed region *)
        let counts = Array.make 100 0 in
        Pool.parallel_for ~chunk:8 ~min_size:2 pool 100 (fun i -> counts.(i) <- 1);
        Alcotest.(check bool) "usable after failure" true (Array.for_all (( = ) 1) counts));
    test "nested regions run inline instead of deadlocking" (fun () ->
        Pool.with_pool ~domains:2 @@ fun pool ->
        let out = Array.make 64 0. in
        Pool.parallel_for ~chunk:8 ~min_size:2 pool 64 (fun i ->
            out.(i) <-
              Pool.map_reduce ~chunk:4 ~min_size:2 pool ~n:8
                ~map:(fun ~lo ~hi -> float_of_int (hi - lo))
                ~reduce:( +. ) ~init:(float_of_int i));
        Alcotest.(check (array (float 0.)))
          "inner reductions"
          (Array.init 64 (fun i -> float_of_int (i + 8)))
          out);
    test "am_worker marks pool runners and resets outside them" (fun () ->
        (* regression for the nested-pool slowdown: kernels invoked from
           inside a pool runner, owner included, must see am_worker and
           stay inline instead of re-entering the pool *)
        Alcotest.(check bool) "outside any pool" false (Pool.am_worker ());
        Pool.with_pool ~domains:2 @@ fun pool ->
        let all_marked = Atomic.make true in
        Pool.parallel_for ~chunk:4 ~min_size:2 pool 64 (fun _ ->
            if not (Pool.am_worker ()) then Atomic.set all_marked false);
        Alcotest.(check bool) "inside every runner" true (Atomic.get all_marked);
        Alcotest.(check bool) "cleared after the region" false (Pool.am_worker ()));
    test "TTSV_DOMAINS overrides the default domain count" (fun () ->
        Unix.putenv "TTSV_DOMAINS" "3";
        let p = Pool.create () in
        let d = Pool.domains p in
        Pool.shutdown p;
        Unix.putenv "TTSV_DOMAINS" "";
        Alcotest.(check int) "from env" 3 d);
  ]

let kernel_tests =
  [
    test "pdot pooled equals its sequential fallback exactly" (fun () ->
        List.iter
          (fun n ->
            let x = vec n and y = vec n in
            let reference = Vec.pdot x y in
            List.iter
              (fun d ->
                Pool.with_pool ~domains:d @@ fun pool ->
                Alcotest.(check (float 0.))
                  (Printf.sprintf "pdot (domains=%d n=%d)" d n)
                  reference (Vec.pdot ~pool x y))
              domain_counts)
          sizes);
    test "pdot within 1e-12 relative of the plain fold" (fun () ->
        let n = 4097 in
        let x = vec n and y = vec n in
        close_rel ~tol:1e-12 "pdot vs dot" (Vec.dot x y) (Vec.pdot x y));
    test "paxpy pooled equals axpy exactly" (fun () ->
        List.iter
          (fun n ->
            let x = vec n in
            let reference = vec n in
            Vec.axpy 1.5 x reference;
            List.iter
              (fun d ->
                Pool.with_pool ~domains:d @@ fun pool ->
                let y = vec n in
                Vec.paxpy ~pool 1.5 x y;
                check_float_array (Printf.sprintf "paxpy (domains=%d n=%d)" d n) reference y)
              domain_counts)
          sizes);
    test "Sparse.mul pooled equals mat_vec exactly" (fun () ->
        (* a banded test matrix large enough to split into many chunks *)
        let n = 3000 in
        let b = Sparse.builder n n in
        for i = 0 to n - 1 do
          Sparse.add b i i (4. +. (0.001 *. float_of_int i));
          if i > 0 then Sparse.add b i (i - 1) (-1.3);
          if i < n - 1 then Sparse.add b i (i + 1) (-0.7)
        done;
        let m = Sparse.finalize b in
        let x = vec n in
        let reference = Sparse.mat_vec m x in
        List.iter
          (fun d ->
            Pool.with_pool ~domains:d @@ fun pool ->
            check_float_array
              (Printf.sprintf "mul (domains=%d)" d)
              reference (Sparse.mul ~pool m x))
          domain_counts);
  ]

(* collect a sparse matrix into comparable (row, col, value) triplets *)
let triplets m =
  let acc = ref [] in
  for i = Sparse.rows m - 1 downto 0 do
    Sparse.iter_row m i (fun j v -> acc := (i, j, v) :: !acc)
  done;
  !acc

let fem_tests =
  [
    test "2-D assembly pooled equals sequential bit for bit" (fun () ->
        let p = Problem.of_stack ~resolution:2 (Params.fig5_stack (Units.um 1.)) in
        let reference = triplets (Solver.assemble p) in
        List.iter
          (fun d ->
            Pool.with_pool ~domains:d @@ fun pool ->
            Alcotest.(check bool)
              (Printf.sprintf "triplets equal (domains=%d)" d)
              true
              (reference = triplets (Solver.assemble ~pool p)))
          domain_counts);
    test "3-D assembly and build pooled equal sequential bit for bit" (fun () ->
        let stack = Params.fig5_stack (Units.um 1.) in
        let reference_p = Problem3.of_stack ~resolution:1 stack in
        let reference = triplets (Solver3.assemble reference_p) in
        Pool.with_pool ~domains:4 @@ fun pool ->
        let p = Problem3.of_stack ~resolution:1 ~pool stack in
        check_float_array "conductivity" reference_p.Problem3.conductivity
          p.Problem3.conductivity;
        check_float_array "source" reference_p.Problem3.source p.Problem3.source;
        Alcotest.(check bool)
          "triplets equal" true
          (reference = triplets (Solver3.assemble ~pool p)));
    test "pooled CG matches sequential iteration-for-iteration (fig5 system)" (fun () ->
        (* satellite regression: the stagnation/divergence guards observe
           the chunk-deterministic preconditioned residual, so a pooled
           matvec cannot shift the guard decisions or the iteration count *)
        let p = Problem.of_stack ~resolution:2 (Params.fig5_stack (Units.um 1.)) in
        let a = Solver.assemble p in
        let reference = Iterative.cg ~tol:1e-10 a p.Problem.source in
        List.iter
          (fun d ->
            Pool.with_pool ~domains:d @@ fun pool ->
            let r = Iterative.cg ~tol:1e-10 ~pool a p.Problem.source in
            Alcotest.(check int)
              (Printf.sprintf "iterations (domains=%d)" d)
              reference.Iterative.iterations r.Iterative.iterations;
            Alcotest.(check bool) "converged" reference.Iterative.converged
              r.Iterative.converged;
            Alcotest.(check (float 0.))
              "residual" reference.Iterative.residual r.Iterative.residual;
            check_float_array "trace" reference.Iterative.trace r.Iterative.trace;
            check_float_array "solution" reference.Iterative.solution r.Iterative.solution)
          domain_counts);
    test "preconditioned CG pooled matches sequential iteration-for-iteration" (fun () ->
        (* the fused kernels and persistent region must not perturb the
           IC(0) iteration path (the mg path has its own test below) *)
        let p = Problem.of_stack ~resolution:2 (Params.fig5_stack (Units.um 1.)) in
        let a = Solver.assemble p in
        let m = Result.get_ok (Precond.ic0 a) in
        let reference = Iterative.cg ~tol:1e-10 ~precond:m a p.Problem.source in
        List.iter
          (fun d ->
            Pool.with_pool ~domains:d @@ fun pool ->
            let r = Iterative.cg ~tol:1e-10 ~pool ~precond:m a p.Problem.source in
            Alcotest.(check int)
              (Printf.sprintf "ic0 iterations (domains=%d)" d)
              reference.Iterative.iterations r.Iterative.iterations;
            check_float_array
              (Printf.sprintf "ic0 trace (domains=%d)" d)
              reference.Iterative.trace r.Iterative.trace;
            check_float_array
              (Printf.sprintf "ic0 solution (domains=%d)" d)
              reference.Iterative.solution r.Iterative.solution)
          domain_counts);
    test "multigrid setup and cycles pooled match sequential bit for bit" (fun () ->
        (* setup is sequential by construction, so a pooled build must
           yield the identical hierarchy; the cycle kernels are
           disjoint-slot maps and independent line solves, so a pooled
           cycle must reproduce the sequential one exactly *)
        let p = Problem.of_stack ~resolution:2 (Params.fig5_stack (Units.um 1.)) in
        let a = Solver.assemble p in
        let g = p.Problem.grid in
        let shape = [| Ttsv_fem.Grid.nr g; Ttsv_fem.Grid.nz g |] in
        let href = Result.get_ok (Multigrid.build ~shape a) in
        let r = vec (Sparse.rows a) in
        let reference = Multigrid.cycle href r in
        List.iter
          (fun d ->
            Pool.with_pool ~domains:d @@ fun pool ->
            let h = Result.get_ok (Multigrid.build ~pool ~shape a) in
            Alcotest.(check int)
              (Printf.sprintf "levels (domains=%d)" d)
              (Multigrid.num_levels href) (Multigrid.num_levels h);
            check_float_array
              (Printf.sprintf "pooled-build cycle (domains=%d)" d)
              reference (Multigrid.cycle h r);
            check_float_array
              (Printf.sprintf "pooled cycle (domains=%d)" d)
              reference
              (Multigrid.cycle ~pool href r))
          domain_counts);
    test "mg-preconditioned CG pooled matches sequential iteration-for-iteration"
      (fun () ->
        let p = Problem.of_stack ~resolution:2 (Params.fig5_stack (Units.um 1.)) in
        let a = Solver.assemble p in
        let g = p.Problem.grid in
        let shape = [| Ttsv_fem.Grid.nr g; Ttsv_fem.Grid.nz g |] in
        let m = Result.get_ok (Precond.mg ~shape a) in
        let reference = Iterative.cg ~tol:1e-10 ~precond:m a p.Problem.source in
        List.iter
          (fun d ->
            Pool.with_pool ~domains:d @@ fun pool ->
            (* the preconditioner itself is rebuilt under the pool, so
               both the setup path and the per-iteration cycles are
               exercised pooled *)
            let mp = Result.get_ok (Precond.mg ~pool ~shape a) in
            let r = Iterative.cg ~tol:1e-10 ~pool ~precond:mp a p.Problem.source in
            Alcotest.(check int)
              (Printf.sprintf "iterations (domains=%d)" d)
              reference.Iterative.iterations r.Iterative.iterations;
            check_float_array
              (Printf.sprintf "trace (domains=%d)" d)
              reference.Iterative.trace r.Iterative.trace;
            check_float_array
              (Printf.sprintf "solution (domains=%d)" d)
              reference.Iterative.solution r.Iterative.solution)
          domain_counts);
    test "inner preconditioned CG under a sweep runs inline and matches" (fun () ->
        (* a solve launched from inside an outer Sweep worker must not
           spawn a nested pool: am_worker forces it sequential, so the
           result is identical to a plain sequential solve *)
        let p = Problem.of_stack ~resolution:1 (Params.fig5_stack (Units.um 1.)) in
        let a = Solver.assemble p in
        let m = Result.get_ok (Precond.ic0 a) in
        let reference = Iterative.cg ~tol:1e-10 ~precond:m a p.Problem.source in
        Pool.with_pool ~domains:2 @@ fun pool ->
        let sols =
          E.Sweep.map ~pool
            (fun _ -> Iterative.cg ~tol:1e-10 ~pool ~precond:m a p.Problem.source)
            [ 0; 1; 2; 3 ]
        in
        Array.iter
          (fun (r : Iterative.result) ->
            Alcotest.(check int)
              "nested iterations" reference.Iterative.iterations r.Iterative.iterations;
            check_float_array "nested solution" reference.Iterative.solution
              r.Iterative.solution)
          sols);
    test "full 2-D solve pooled equals sequential" (fun () ->
        let p = Problem.of_stack ~resolution:1 (Params.fig5_stack (Units.um 1.)) in
        let reference = Solver.solve p in
        Pool.with_pool ~domains:4 @@ fun pool ->
        let r = Solver.solve ~pool p in
        Alcotest.(check int) "iterations" reference.Solver.iterations r.Solver.iterations;
        check_float_array "temps" reference.Solver.temps r.Solver.temps);
    test "full 3-D solve pooled equals sequential" (fun () ->
        let stack = Params.fig5_stack (Units.um 1.) in
        let reference = Solver3.solve (Problem3.of_stack ~resolution:1 stack) in
        Pool.with_pool ~domains:4 @@ fun pool ->
        let r = Solver3.solve ~pool (Problem3.of_stack ~resolution:1 ~pool stack) in
        Alcotest.(check int) "iterations" reference.Solver3.iterations
          r.Solver3.iterations;
        check_float_array "temps" reference.Solver3.temps r.Solver3.temps);
  ]

let sweep_tests =
  [
    test "Sweep.map keeps sweep order at any domain count" (fun () ->
        let xs = List.init 23 (fun i -> i) in
        let reference = Array.of_list (List.map (fun i -> (i * 7) mod 11) xs) in
        List.iter
          (fun d ->
            Pool.with_pool ~domains:d @@ fun pool ->
            Alcotest.(check (array int))
              (Printf.sprintf "ordered (domains=%d)" d)
              reference
              (E.Sweep.map ~pool (fun i -> (i * 7) mod 11) xs))
          domain_counts);
    test "fig5 sweep pooled equals sequential bit for bit" (fun () ->
        let reference = E.Figures.run ~resolution:1 E.Figures.fig5 in
        Pool.with_pool ~domains:2 @@ fun pool ->
        let fig = E.Figures.run ~resolution:1 ~pool E.Figures.fig5 in
        List.iter2
          (fun (a : E.Report.series) (b : E.Report.series) ->
            Alcotest.(check string) "label" a.E.Report.label b.E.Report.label;
            check_float_array a.E.Report.label a.E.Report.ys b.E.Report.ys)
          reference.E.Report.series fig.E.Report.series);
    test "variation study pooled equals sequential bit for bit" (fun () ->
        let reference = E.Variation.run ~samples:500 () in
        Pool.with_pool ~domains:4 @@ fun pool ->
        let s = E.Variation.run ~samples:500 ~pool () in
        Alcotest.(check (float 0.)) "mean" reference.E.Variation.mean s.E.Variation.mean;
        Alcotest.(check (float 0.)) "stddev" reference.E.Variation.stddev
          s.E.Variation.stddev;
        Alcotest.(check (float 0.)) "p99" reference.E.Variation.p99 s.E.Variation.p99;
        Alcotest.(check (float 0.)) "worst" reference.E.Variation.worst
          s.E.Variation.worst;
        Alcotest.(check (float 0.))
          "yield" reference.E.Variation.yield_at_budget s.E.Variation.yield_at_budget);
    test "look-ahead allocation pooled equals sequential" (fun () ->
        let stack = Params.fig5_stack (Units.um 1.) in
        let chip =
          Chip_model.make ~width:(Units.mm 1.) ~height:(Units.mm 1.) ~nx:4 ~ny:4 stack
        in
        let power =
          List.init
            (Array.length stack.Stack.planes)
            (fun _ ->
              Power_map.add_hotspot
                (Power_map.uniform ~nx:4 ~ny:4 ~total:0.2)
                ~x0:1 ~y0:1 ~x1:2 ~y1:2 ~watts:0.3)
        in
        let bare = Chip_model.solve chip (Chip_model.uniform_density chip 0.) power in
        let o = Allocation.default_options ~budget:(bare.Chip_model.max_rise *. 0.85) in
        let o = { o with Allocation.step = 0.01; candidates = 4 } in
        let reference = Allocation.allocate chip power o in
        Pool.with_pool ~domains:4 @@ fun pool ->
        let out = Allocation.allocate ~pool chip power o in
        Alcotest.(check bool) "feasible" reference.Allocation.feasible
          out.Allocation.feasible;
        Alcotest.(check int) "iterations" reference.Allocation.iterations
          out.Allocation.iterations;
        check_float_array "densities" reference.Allocation.densities
          out.Allocation.densities;
        (* the look-ahead picks at least as well as plain greedy *)
        let greedy =
          Allocation.allocate chip power { o with Allocation.candidates = 1 }
        in
        Alcotest.(check bool)
          "look-ahead not worse" true
          (out.Allocation.iterations <= greedy.Allocation.iterations));
  ]

module Budget = Ttsv_parallel.Budget

let budget_tests =
  [
    test "an expired budget aborts for_chunks with Expired on every path" (fun () ->
        let spent = Budget.make ~max_work:0 () in
        let attempt pool n =
          match
            Pool.for_chunks ~chunk:8 ~min_size:2 ~budget:spent pool n (fun ~lo:_ ~hi:_ -> ())
          with
          | () -> Alcotest.fail "expected Budget.Expired"
          | exception Budget.Expired Budget.Work_exhausted -> ()
          | exception Budget.Expired Budget.Deadline_exceeded ->
            Alcotest.fail "work cap must win over the clock"
        in
        attempt Pool.seq 100 (* sequential fallback *);
        Pool.with_pool ~domains:4 @@ fun pool ->
        attempt pool 5000 (* lone-kernel region *);
        (* and the pool is unharmed afterwards *)
        let counts = Array.make 100 0 in
        Pool.parallel_for ~chunk:8 ~min_size:2 pool 100 (fun i -> counts.(i) <- 1);
        Alcotest.(check bool) "usable after expiry" true (Array.for_all (( = ) 1) counts));
    test "map_array under an expired budget raises Expired" (fun () ->
        Pool.with_pool ~domains:2 @@ fun pool ->
        let spent = Budget.make ~max_work:0 () in
        match Pool.map_array ~budget:spent pool (fun i -> i * i) (Array.init 64 Fun.id) with
        | _ -> Alcotest.fail "expected Budget.Expired"
        | exception Budget.Expired _ -> ());
    test "budget expiry mid-sweep is prompt and loses no completed chunk" (fun () ->
        (* the budget is polled once per chunk before its body runs: with
           the work cap ticked inside the body, the sequential walk does
           exactly [cap] chunks and then raises *)
        let cap = 3 in
        let b = Budget.make ~max_work:cap () in
        let ran = ref 0 in
        (match
           Pool.for_chunks ~chunk:1 ~min_size:2 ~budget:b Pool.seq 10 (fun ~lo:_ ~hi:_ ->
               incr ran;
               Budget.tick b)
         with
        | () -> Alcotest.fail "expected Budget.Expired"
        | exception Budget.Expired _ -> ());
        Alcotest.(check int) "chunks before expiry" cap !ran);
    test "a generous budget leaves pooled results untouched" (fun () ->
        Pool.with_pool ~domains:4 @@ fun pool ->
        let xs = Array.init 37 Fun.id in
        let budget = Budget.make ~deadline_s:3600. ~max_work:max_int () in
        Alcotest.(check (array int))
          "same squares"
          (Array.map (fun i -> i * i) xs)
          (Pool.map_array ~budget pool (fun i -> i * i) xs));
  ]

let suite =
  ("parallel", pool_tests @ kernel_tests @ fem_tests @ sweep_tests @ budget_tests)
