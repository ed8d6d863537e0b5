(* Tests for the solver escalation ladder (Robust), the structured input
   validation (Validate) and the typed failure paths of the FEM front
   ends. *)

module Sparse = Ttsv_numerics.Sparse
module Dense = Ttsv_numerics.Dense
module Banded = Ttsv_numerics.Banded
module Vec = Ttsv_numerics.Vec
module Iterative = Ttsv_numerics.Iterative
module Budget = Ttsv_parallel.Budget
module Fault = Ttsv_parallel.Fault
module Robust = Ttsv_robust.Robust
module Diagnostics = Ttsv_robust.Diagnostics
module Json = Ttsv_obs.Json
module Profile = Ttsv_obs.Profile
module Validate = Ttsv_robust.Validate
module Params = Ttsv_core.Params
module Materials = Ttsv_physics.Materials
module Material = Ttsv_physics.Material
module Problem = Ttsv_fem.Problem
module Solver = Ttsv_fem.Solver
module Coefficients = Ttsv_core.Coefficients
module Package = Ttsv_core.Package
module Transient = Ttsv_core.Transient
module Stack = Ttsv_geometry.Stack
module Chip_model = Ttsv_chip.Chip_model
module Power_map = Ttsv_chip.Power_map
module Allocation = Ttsv_chip.Allocation
open Helpers

let gen_spd_system n = QCheck2.Gen.(gen_spd n >>= fun m -> gen_vec n >|= fun b -> (m, b))

let contains s affix =
  let ls = String.length s and la = String.length affix in
  let rec at i = i + la <= ls && (String.sub s i la = affix || at (i + 1)) in
  at 0

(* a mildly nonsymmetric system: CG's recurrence is invalid here *)
let small_nonsym () =
  let b = Sparse.builder 3 3 in
  Sparse.add b 0 0 4.;
  Sparse.add b 0 1 1.;
  Sparse.add b 1 0 2.;
  Sparse.add b 1 1 5.;
  Sparse.add b 1 2 1.;
  Sparse.add b 2 1 (-1.);
  Sparse.add b 2 2 3.;
  Sparse.finalize b

(* the 2-D rotation [[0, 1]; [-1, 0]]: no stored diagonal, so IC(0)
   cannot be built, and p.Ap = 0 on the first step, so Jacobi-CG breaks
   down immediately; only a pivoting direct solve gets through *)
let rotation () =
  let b = Sparse.builder 2 2 in
  Sparse.add b 0 1 1.;
  Sparse.add b 1 0 (-1.);
  Sparse.finalize b

(* the n-by-n Hilbert matrix: condition number ~1e13 at n = 10 *)
let hilbert n =
  let b = Sparse.builder n n in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      Sparse.add b i j (1. /. Float.of_int (i + j + 1))
    done
  done;
  Sparse.finalize b

(* a tridiagonal SPD system with its LU solution: a start that already
   meets any tolerance above ~1e-15 *)
let solved_system () =
  let n = 40 in
  let b = Sparse.builder n n in
  for i = 0 to n - 1 do
    Sparse.add b i i 4.;
    if i > 0 then Sparse.add b i (i - 1) (-1.);
    if i < n - 1 then Sparse.add b i (i + 1) (-1.)
  done;
  let m = Sparse.finalize b in
  let rhs = Array.init n (fun i -> 1. +. float_of_int (i mod 3)) in
  (m, rhs, Dense.solve (Sparse.to_dense m) rhs)

(* a 3x3 SPD tridiagonal system *)
let spd3 () =
  Sparse.of_dense (Dense.of_arrays [| [| 4.; -1.; 0. |]; [| -1.; 4.; -1. |]; [| 0.; -1.; 4. |] |])

let expect_x0_rejected = function
  | Ok _ -> Alcotest.fail "expected rejection"
  | Error f -> (
    match f.Robust.reason with
    | Robust.Invalid_input problems ->
      Alcotest.(check bool)
        (Printf.sprintf "a problem names x0 (%s)" (String.concat "; " problems))
        true
        (List.exists (fun p -> contains p "x0") problems);
      Alcotest.(check int) "no iterations spent" 0 f.Robust.diagnostics.Diagnostics.iterations
    | Robust.Exhausted | Robust.Deadline_exceeded -> Alcotest.fail "expected Invalid_input")

let attempt_summary (d : Diagnostics.t) =
  List.map
    (fun a ->
      ( Diagnostics.rung_name a.Diagnostics.rung,
        a.Diagnostics.iterations,
        Format.asprintf "%a" Diagnostics.pp_outcome a.Diagnostics.outcome ))
    d.Diagnostics.attempts

let matches_direct msg m b x =
  let exact = Dense.solve (Sparse.to_dense m) b in
  Alcotest.(check bool) msg true (Vec.approx_equal ~rtol:1e-6 ~atol:1e-9 x exact)

(* run [f] with a fresh temp trace open, closed afterwards, and return
   its result with the loaded trace *)
let traced f =
  let path = Filename.temp_file "ttsv_robust" ".jsonl" in
  Ttsv_obs.Config.enable_trace path;
  let r = Fun.protect ~finally:Ttsv_obs.Config.disable_trace f in
  let lines = In_channel.with_open_text path In_channel.input_lines in
  Sys.remove path;
  match Profile.of_lines lines with
  | Ok t -> (r, t)
  | Error e -> Alcotest.fail ("trace does not load: " ^ e)

let ladder_tests =
  [
    test "ladder recovers a system plain CG cannot solve" (fun () ->
        let m = small_nonsym () in
        let b = [| 1.; 2.; 3. |] in
        let cg = Iterative.cg ~tol:1e-12 m b in
        Alcotest.(check bool) "plain CG fails here" false cg.Iterative.converged;
        match Robust.solve ~tol:1e-12 m b with
        | Error f -> Alcotest.failf "ladder failed: %a" Robust.pp_failure f
        | Ok (x, d) ->
          matches_direct "matches LU" m b x;
          Alcotest.(check bool) "rescued by the direct rung" true
            (d.Diagnostics.solved_by = Some Diagnostics.Direct);
          Alcotest.(check bool) "ladder starts at IC(0)-CG" true
            (match d.Diagnostics.attempts with
            | first :: _ -> first.Diagnostics.rung = Diagnostics.Cg_ic0
            | [] -> false));
    test "a failed rung keeps its own convergence history after escalation" (fun () ->
        (* the losing rung's curve, not the winner's, is what explains the
           failure: a traced run writes it as a conv line under the
           robust.cg span, while the diagnostics keep the deciding
           direct rung's residual *)
        let m = small_nonsym () in
        let b = [| 1.; 2.; 3. |] in
        let ladder () =
          Robust.solve ~tol:1e-12 ~rungs:[ Diagnostics.Cg; Diagnostics.Direct ] m b
        in
        let result, trace = traced ladder in
        match result with
        | Error f -> Alcotest.failf "ladder failed: %a" Robust.pp_failure f
        | Ok (_, d) -> (
          match d.Diagnostics.attempts with
          | [ failed; _ ] ->
            Alcotest.(check bool) "cg rung failed" true
              (failed.Diagnostics.outcome <> Diagnostics.Success);
            let rung_of (c : Profile.conv) =
              match c.Profile.span with
              | Some id -> (
                match
                  List.find_opt (fun (s : Profile.span) -> s.Profile.id = id) trace.Profile.spans
                with
                | Some s -> s.Profile.name
                | None -> Alcotest.failf "conv line points at unknown span %d" id)
              | None -> Alcotest.fail "conv line without a span tag"
            in
            (match trace.Profile.convs with
            | [ c ] ->
              Alcotest.(check string) "tagged with the cg rung's span" "robust.cg" (rung_of c);
              Alcotest.(check string) "history is cg's" "cg" c.Profile.meth;
              Alcotest.(check int) "every iteration of the failed rung, start included"
                (failed.Diagnostics.iterations + 1) c.Profile.total
            | l ->
              Alcotest.failf "expected one conv line (the direct rung writes none), got %d"
                (List.length l));
            Alcotest.(check int) "the diagnostics keep the direct rung's residual" 1
              (Array.length d.Diagnostics.trace)
          | l -> Alcotest.failf "expected 2 attempts, got %d" (List.length l)));
    test "a solve's diagnostics do not depend on observability" (fun () ->
        (* the same escalating ladder solve, with observability off,
           collecting metrics and writing a trace: one record, whatever
           the switches say (wall times aside) *)
        let m = small_nonsym () in
        let b = [| 1.; 2.; 3. |] in
        let ladder () =
          Robust.solve ~tol:1e-12 ~rungs:[ Diagnostics.Cg; Diagnostics.Direct ] m b
        in
        let rec no_walls = function
          | Json.Obj kvs ->
            Json.Obj
              (List.filter_map
                 (fun (k, v) -> if k = "wall_seconds" then None else Some (k, no_walls v))
                 kvs)
          | Json.List l -> Json.List (List.map no_walls l)
          | j -> j
        in
        let record = function
          | Ok (_, d) -> Json.to_string (no_walls (Diagnostics.to_json d))
          | Error f -> Alcotest.failf "ladder failed: %a" Robust.pp_failure f
        in
        Ttsv_obs.Config.disable_trace ();
        Ttsv_obs.Config.disable_metrics ();
        let off = record (ladder ()) in
        let metrics =
          Ttsv_obs.Config.enable_metrics ();
          Fun.protect ~finally:Ttsv_obs.Config.disable_metrics (fun () -> record (ladder ()))
        in
        let traced = record (fst (traced ladder)) in
        Alcotest.(check string) "metrics on" off metrics;
        Alcotest.(check string) "trace open" off traced);
    test "both Krylov rungs break down; the direct rung rescues" (fun () ->
        let m = rotation () in
        let b = [| 1.; 2. |] in
        match Robust.solve m b with
        | Error f -> Alcotest.failf "ladder failed: %a" Robust.pp_failure f
        | Ok (x, d) ->
          matches_direct "matches LU" m b x;
          Alcotest.(check bool) "solved by the direct rung" true
            (d.Diagnostics.solved_by = Some Diagnostics.Direct);
          (* the missing diagonal must make the IC(0) construction fail
             closed as Skipped, costing zero iterations, rather than
             dividing by zero *)
          Alcotest.(check (list (triple string int string)))
            "ic0 skipped, cg failed, direct ok"
            [
              ("cg-ic0", 0, "skipped: ic0: row 0 has no stored diagonal entry");
              ("cg", 1, "failed: breakdown (p.Ap underflow)");
              ("direct", 0, "ok");
            ]
            (attempt_summary d));
    test "the direct rung factors its private band in place" (fun () ->
        (* the band built for the direct rung is the solve's own, so only
           b is copied: a copying banded solve made the rung allocate the
           band twice (a band may hold 50M entries) *)
        let n = 2000 and bw = 2 in
        let w = (2 * bw) + 1 in
        let triplets = Sparse.builder n n in
        let band = Array.make (n * w) 0. in
        let stamp i j v =
          Sparse.add triplets i j v;
          band.((i * w) + j - i + bw) <- v
        in
        for i = 0 to n - 1 do
          stamp i i (5. +. Float.of_int (i mod 7));
          for d = 1 to bw do
            if i + d < n then begin
              let v = -1. /. Float.of_int (d + (i mod 3)) in
              stamp i (i + d) v;
              stamp (i + d) i v
            end
          done
        done;
        let m = Sparse.finalize triplets in
        let b = Array.init n (fun i -> Float.of_int ((i * 37) mod 101) -. 50.) in
        let b_before = Array.copy b in
        let direct () =
          match Robust.solve ~rungs:[ Diagnostics.Direct ] m b with
          | Ok (x, _) -> x
          | Error f -> Alcotest.failf "direct rung failed: %a" Robust.pp_failure f
        in
        ignore (direct ());
        let direct_major () =
          let _, promoted, major = Gc.counters () in
          major -. promoted
        in
        let before = direct_major () in
        let x = direct () in
        let words = direct_major () -. before in
        let bits v = Array.map Int64.bits_of_float v in
        Alcotest.(check (array int64)) "b untouched" (bits b_before) (bits b);
        let reference = Array.copy b in
        Banded.solve_in_place ~n ~bw band reference;
        Alcotest.(check (array int64)) "same bits as Banded.solve_in_place"
          (bits reference) (bits x);
        let limit = (1.2 *. Float.of_int (n * w)) +. Float.of_int n in
        Alcotest.(check bool)
          (Printf.sprintf "%.0f major words <= 1.2 x band + n = %.0f" words limit)
          true (words <= limit));
    test "ill-conditioned Hilbert system ends with a usable answer" (fun () ->
        let n = 10 in
        let m = hilbert n in
        let b = Array.init n (fun i -> 1. /. Float.of_int (i + 1)) in
        match Robust.solve ~tol:1e-14 m b with
        | Error f -> Alcotest.failf "ladder failed: %a" Robust.pp_failure f
        | Ok (x, d) ->
          let res = Vec.norm2 (Vec.sub b (Sparse.mat_vec m x)) /. Vec.norm2 b in
          Alcotest.(check bool)
            (Printf.sprintf "residual %.3g within the direct floor" res)
            true (res <= 1e-8);
          Alcotest.(check bool) "some rung claimed it" true
            (d.Diagnostics.solved_by <> None));
    test "NaN in the rhs is rejected before any rung runs" (fun () ->
        let m = Sparse.of_dense (Dense.identity 3) in
        match Robust.solve m [| 1.; Float.nan; 3. |] with
        | Ok _ -> Alcotest.fail "expected rejection"
        | Error f ->
          (match f.Robust.reason with
          | Robust.Invalid_input problems ->
            Alcotest.(check bool) "mentions the rhs" true
              (List.exists (fun p -> String.length p > 0 && String.sub p 0 3 = "rhs") problems)
          | Robust.Exhausted | Robust.Deadline_exceeded ->
            Alcotest.fail "expected Invalid_input");
          Alcotest.(check int) "no rung ran" 0 (List.length f.Robust.diagnostics.Diagnostics.attempts);
          Alcotest.(check int) "no iterations spent" 0
            f.Robust.diagnostics.Diagnostics.iterations);
    test "Inf in the matrix is rejected before any rung runs" (fun () ->
        let b = Sparse.builder 2 2 in
        Sparse.add b 0 0 Float.infinity;
        Sparse.add b 1 1 1.;
        match Robust.solve (Sparse.finalize b) [| 1.; 1. |] with
        | Ok _ -> Alcotest.fail "expected rejection"
        | Error f -> (
          match f.Robust.reason with
          | Robust.Invalid_input _ -> ()
          | Robust.Exhausted | Robust.Deadline_exceeded ->
            Alcotest.fail "expected Invalid_input"));
    test "dimension mismatch is a typed failure, not an exception" (fun () ->
        let m = Sparse.of_dense (Dense.identity 3) in
        match Robust.solve m [| 1.; 2. |] with
        | Ok _ -> Alcotest.fail "expected rejection"
        | Error f -> (
          match f.Robust.reason with
          | Robust.Invalid_input problems ->
            Alcotest.(check bool) "at least one problem" true (problems <> [])
          | Robust.Exhausted | Robust.Deadline_exceeded ->
            Alcotest.fail "expected Invalid_input"));
    test "a wrong-length x0 is Invalid_input naming x0, not an exception" (fun () ->
        (* the ladder's first matvec used to raise Invalid_argument *)
        let m = spd3 () in
        expect_x0_rejected (Robust.solve ~x0:[| 0.; 0. |] m [| 1.; 2.; 3. |]));
    test "a NaN x0 is Invalid_input naming x0, before any rung starts from it" (fun () ->
        (* both CG rungs used to start from NaN, leaving the answer to
           the direct rung, which a large matrix does not have *)
        let m = spd3 () in
        expect_x0_rejected (Robust.solve ~x0:[| 0.; Float.nan; 0. |] m [| 1.; 2.; 3. |]));
    test "a stagnating iterative-only ladder aborts far below the budget" (fun () ->
        (* unreachable tolerance + no direct rung: the Jacobi-CG rung
           hits the stagnation guard and the ladder spends a window or
           two, not max_iter *)
        let n = 20 in
        let pair = QCheck2.Gen.generate1 ~rand:(Random.State.make [| 7 |]) (gen_spd_system n) in
        let m, b = pair in
        let max_iter = 50_000 in
        match
          Robust.solve ~tol:1e-300 ~max_iter ~stagnation_window:50
            ~rungs:[ Diagnostics.Cg ] m b
        with
        | Ok _ -> Alcotest.fail "1e-300 should be unreachable"
        | Error f ->
          Alcotest.(check bool) "exhausted" true (f.Robust.reason = Robust.Exhausted);
          Alcotest.(check bool)
            (Printf.sprintf "aborted early (%d iterations)"
               f.Robust.diagnostics.Diagnostics.iterations)
            true
            (f.Robust.diagnostics.Diagnostics.iterations < max_iter / 10);
          Alcotest.(check bool) "best iterate retained" true (f.Robust.best <> None);
          Alcotest.(check bool) "its residual is finite" true
            (Float.is_finite f.Robust.best_residual));
    test "a converged start is the first rung's answer, with no preconditioner built"
      (fun () ->
        (* every precond-site draw fires, so building IC(0) would skip
           the rung and leave Jacobi-CG to answer *)
        let m, rhs, x0 = solved_system () in
        let injected = Fault.injected_total () in
        (match Fault.configure "precond=1:1" with
        | Ok () -> ()
        | Error why -> Alcotest.fail why);
        let outcome = Fun.protect ~finally:Fault.disarm (fun () -> Robust.solve ~x0 m rhs) in
        match outcome with
        | Error f -> Alcotest.failf "ladder failed: %a" Robust.pp_failure f
        | Ok (x, d) ->
          Alcotest.(check (list (triple string int string)))
            "one cg-ic0 attempt at 0 iterations" [ ("cg-ic0", 0, "ok") ] (attempt_summary d);
          Alcotest.(check int) "no fault injected" injected (Fault.injected_total ());
          Alcotest.(check (array (float 0.))) "the start itself" x0 x);
    test "a converged start is answered under an expired budget" (fun () ->
        let m, rhs, x0 = solved_system () in
        let budget = Budget.make ~deadline_s:0. () in
        Unix.sleepf 2e-3;
        Alcotest.(check bool) "budget spent" true (Budget.check budget <> None);
        match Robust.solve ~x0 ~budget m rhs with
        | Error f -> Alcotest.failf "expected an answer: %a" Robust.pp_failure f
        | Ok (_, d) ->
          Alcotest.(check (list (triple string int string)))
            "one cg-ic0 attempt at 0 iterations" [ ("cg-ic0", 0, "ok") ] (attempt_summary d));
    test "an exact warm start is answered with x0 itself, not a copy" (fun () ->
        (* the copy was a fresh n-vector on the major heap per exact
           service hit; no caller writes into an answer *)
        let m, rhs, x0 = solved_system () in
        let before = Array.copy x0 in
        match Robust.solve ~x0 m rhs with
        | Error f -> Alcotest.failf "ladder failed: %a" Robust.pp_failure f
        | Ok (x, _) ->
          Alcotest.(check bool) "physically x0" true (x == x0);
          Alcotest.(check (array (float 0.))) "x0 unchanged" before x0);
    qtest ~count:30 "SPD fast path: IC(0)-CG alone, one successful attempt" (gen_spd_system 12)
      (fun (m, b) ->
        match Robust.solve ~tol:1e-10 m b with
        | Error _ -> false
        | Ok (x, d) ->
          let exact = Dense.solve (Sparse.to_dense m) b in
          Vec.approx_equal ~rtol:1e-6 ~atol:1e-8 x exact
          && d.Diagnostics.solved_by = Some Diagnostics.Cg_ic0
          && List.length d.Diagnostics.attempts = 1
          && (List.hd d.Diagnostics.attempts).Diagnostics.outcome = Diagnostics.Success);
    test "census: IC(0)-CG answers the fig5 FV solve at 2-D res 1-3 in one attempt" (fun () ->
        (* the rungs below the top one exist for failures; on the
           paper's own geometry the ladder never needs them *)
        List.iter
          (fun resolution ->
            let p = Problem.of_stack ~resolution (Params.fig5_stack (Units.um 1.)) in
            match Solver.try_solve p with
            | Error f -> Alcotest.failf "res %d failed: %a" resolution Robust.pp_failure f
            | Ok r ->
              let d = r.Solver.diagnostics in
              Alcotest.(check (option string))
                (Printf.sprintf "res %d solved by" resolution)
                (Some "cg-ic0")
                (Option.map Diagnostics.rung_name d.Diagnostics.solved_by);
              Alcotest.(check int)
                (Printf.sprintf "res %d attempts" resolution)
                1
                (List.length d.Diagnostics.attempts))
          [ 1; 2; 3 ]);
    test "the default ladder keeps the mg-pinned answer on the 8 corners of the fv2d box"
      (fun () ->
        (* r x t_L x t_Si23 in {2, 10} x {0.5, 3} x {10, 45} um at 2-D
           res 3: IC(0)-CG and a ladder pinned to multigrid-CG reach the
           same max rise, and both solves conserve energy *)
        let corners =
          List.concat_map
            (fun r ->
              List.concat_map (fun tl -> List.map (fun ts -> (r, tl, ts)) [ 10.; 45. ]) [ 0.5; 3. ])
            [ 2.; 10. ]
        in
        List.iter
          (fun (r, tl, ts) ->
            let at = Printf.sprintf "r=%g t_L=%g t_Si23=%g" r tl ts in
            let p =
              Problem.of_stack ~resolution:3
                (Params.block ~r:(Units.um r) ~t_liner:(Units.um tl) ~t_si23:(Units.um ts) ())
            in
            let solve ?rungs expected =
              match Solver.try_solve ?rungs p with
              | Error f -> Alcotest.failf "%s failed: %a" at Robust.pp_failure f
              | Ok res ->
                Alcotest.(check (option string))
                  (at ^ " solved by")
                  (Some (Diagnostics.rung_name expected))
                  (Option.map Diagnostics.rung_name res.Solver.diagnostics.Diagnostics.solved_by);
                Alcotest.(check bool)
                  (Printf.sprintf "%s %s energy imbalance %.3g" at
                     (Diagnostics.rung_name expected) (Solver.energy_imbalance res))
                  true
                  (Solver.energy_imbalance res <= 1e-6);
                Solver.max_rise res
            in
            let mg = solve ~rungs:[ Diagnostics.Cg_mg; Diagnostics.Direct ] Diagnostics.Cg_mg in
            close_rel ~tol:1e-8 (at ^ " max rise") mg (solve Diagnostics.Cg_ic0))
          corners);
  ]

let validate_tests =
  [
    test "every violation is reported at once, not just the first" (fun () ->
        let vs =
          Validate.block ~r:(-.Units.um 3.) ~t_liner:Float.nan ~t_ild:(Units.um 4.)
            ~t_bond:(Units.um 1.) ~t_si23:(Units.um 45.) ~t_si1:(Units.um 1.)
            ~l_ext:(Units.um 5.) ~t_device:(Units.um 1.)
            ~footprint:(Units.um 100. *. Units.um 100.)
        in
        Alcotest.(check bool)
          (Printf.sprintf "%d violations" (List.length vs))
          true
          (List.length vs >= 3);
        let fields = List.map (fun v -> v.Validate.field) vs in
        Alcotest.(check bool) "radius sign" true (List.mem "radius" fields);
        Alcotest.(check bool) "liner finiteness" true (List.mem "liner_thickness" fields);
        Alcotest.(check bool) "extension vs substrate cross-check" true
          (List.mem "l_ext" fields));
    test "block_checked accepts the paper's defaults" (fun () ->
        match Params.block_checked () with
        | Error vs -> Alcotest.fail (Validate.to_string vs)
        | Ok stack ->
          let show s = Format.asprintf "%a" Ttsv_geometry.Stack.pp s in
          Alcotest.(check string) "same stack as the unchecked builder" (show (Params.block ()))
            (show stack));
    test "block_checked rejects a TSV wider than the footprint" (fun () ->
        match Params.block_checked ~r:(Units.um 80.) () with
        | Ok _ -> Alcotest.fail "an 80 um TSV cannot fit a 100x100 um cell"
        | Error vs ->
          Alcotest.(check bool) "footprint cross-check fired" true
            (List.exists (fun v -> v.Validate.field = "radius") vs));
    test "material validation flags nonpositive properties" (fun () ->
        let bad = { Materials.copper with Material.conductivity = -1. } in
        let vs = Validate.material bad in
        Alcotest.(check int) "one violation" 1 (List.length vs);
        Alcotest.(check bool) "names the material" true
          (String.length (List.hd vs).Validate.field > 0));
    test "violations render as readable text" (fun () ->
        let vs = Validate.tsv ~radius:(-1.) ~liner_thickness:1e-6 ~extension:1e-6 () in
        let s = Validate.to_string vs in
        Alcotest.(check bool) "mentions the field" true (contains s "radius"));
    test "NaN fails every positive or nonnegative guard" (fun () ->
        (* a [x <= 0.] guard lets NaN through *)
        let nan = Float.nan in
        let stack = Params.block () in
        let planes = Array.to_list stack.Stack.planes and tsv = stack.Stack.tsv in
        let chip ~width ~height = Chip_model.make ~width ~height ~nx:1 ~ny:1 stack in
        let tile = Power_map.zero ~nx:1 ~ny:1 in
        let allocate o =
          let maps = List.map (fun _ -> tile) planes in
          ignore (Allocation.allocate (chip ~width:1e-4 ~height:1e-4) maps o)
        in
        let opts = Allocation.default_options ~budget:1. in
        List.iter
          (fun (name, f) -> check_raises_invalid name f)
          [
            ("Coefficients.make k1", fun () -> ignore (Coefficients.make ~k1:nan ~k2:1.));
            ("Coefficients.make k2", fun () -> ignore (Coefficients.make ~k1:1. ~k2:nan));
            ("Package.make", fun () -> ignore (Package.make ~resistance:nan ()));
            ("Transient.solve dt", fun () -> ignore (Transient.solve stack ~dt:nan ~duration:1e-3));
            ( "Transient.solve duration",
              fun () -> ignore (Transient.solve stack ~dt:1e-4 ~duration:nan) );
            (* a chip tiles a made stack, so these guards are the chip's too *)
            ( "Stack.with_tsv extension",
              fun () ->
                ignore (Stack.with_tsv stack { tsv with Ttsv_geometry.Tsv.extension = nan }) );
            ( "Stack.map_planes bond",
              fun () ->
                ignore
                  (Stack.map_planes stack (fun i p ->
                       if i = 2 then { p with Ttsv_geometry.Plane.t_bond = nan } else p)) );
            ("Chip_model.make width", fun () -> ignore (chip ~width:nan ~height:1e-4));
            ("Chip_model.make height", fun () -> ignore (chip ~width:1e-4 ~height:nan));
            ("Power_map.uniform", fun () -> ignore (Power_map.uniform ~nx:1 ~ny:1 ~total:nan));
            ( "Power_map.add_hotspot",
              fun () -> ignore (Power_map.add_hotspot tile ~x0:0 ~y0:0 ~x1:0 ~y1:0 ~watts:nan) );
            ("Allocation.default_options", fun () -> ignore (Allocation.default_options ~budget:nan));
            ("Allocation.allocate budget", fun () -> allocate { opts with budget = nan });
            ("Allocation.allocate step", fun () -> allocate { opts with step = nan });
            ("Allocation.allocate max_density", fun () -> allocate { opts with max_density = nan });
          ]);
  ]

let fem_failure_tests =
  [
    test "NaN-poisoned conductivity is rejected up front by the FEM solver" (fun () ->
        let p = Problem.of_stack (Params.block ()) in
        p.Problem.conductivity.(0) <- Float.nan;
        match Solver.try_solve p with
        | Ok _ -> Alcotest.fail "expected rejection"
        | Error f -> (
          match f.Robust.reason with
          | Robust.Invalid_input problems ->
            Alcotest.(check bool) "points at the bad cell" true
              (List.exists (fun s -> contains s "cell 0") problems)
          | Robust.Exhausted | Robust.Deadline_exceeded ->
            Alcotest.fail "expected Invalid_input"));
    test "NaN-poisoned source is rejected up front by the FEM solver" (fun () ->
        let p = Problem.of_stack (Params.block ()) in
        p.Problem.source.(0) <- Float.neg_infinity;
        match Solver.try_solve p with
        | Ok _ -> Alcotest.fail "expected rejection"
        | Error f -> (
          match f.Robust.reason with
          | Robust.Invalid_input _ -> ()
          | Robust.Exhausted | Robust.Deadline_exceeded ->
            Alcotest.fail "expected Invalid_input"));
    test "a healthy FV solve reports its diagnostics" (fun () ->
        let p = Problem.of_stack (Params.block ()) in
        match Solver.try_solve p with
        | Error f -> Alcotest.failf "solve failed: %a" Robust.pp_failure f
        | Ok r ->
          let d = r.Solver.diagnostics in
          Alcotest.(check bool) "solved by some rung" true (d.Diagnostics.solved_by <> None);
          Alcotest.(check bool) "iterations recorded" true (d.Diagnostics.iterations > 0);
          Alcotest.(check bool) "trace recorded" true (Array.length d.Diagnostics.trace > 0);
          Alcotest.(check bool) "wall time recorded" true (d.Diagnostics.wall_time >= 0.));
  ]

let suite = ("robust", ladder_tests @ validate_tests @ fem_failure_tests)
