(* Chaos suite: budgets, fault injection, crash containment and
   checkpoint/resume.  The contract under test is uniform — whatever is
   injected (NaN matvecs, preconditioner failures, worker crashes,
   stalls, expired budgets), the library answers with a genuinely
   converged solution or a typed diagnostic, never an uncaught exception
   or a hang — and a killed-and-resumed sweep is byte-identical to an
   uninterrupted one.

   Under `dune runtest` the fault engine is disarmed and the ambient
   tests exercise the fault-free path; the CI chaos job re-runs this
   suite alone with TTSV_FAULTS armed across several seeds (test_main
   gates the other suites out, since a globally armed engine breaks
   their determinism contracts by design). *)

module Budget = Ttsv_parallel.Budget
module Fault = Ttsv_parallel.Fault
module Pool = Ttsv_parallel.Pool
module Sparse = Ttsv_numerics.Sparse
module Iterative = Ttsv_numerics.Iterative
module Robust = Ttsv_robust.Robust
module Diagnostics = Ttsv_robust.Diagnostics
module Solver = Ttsv_fem.Solver
module Problem = Ttsv_fem.Problem
module Params = Ttsv_core.Params
module Units = Ttsv_physics.Units
module Json = Ttsv_obs.Json
module E = Ttsv_experiments
open Helpers

(* run [f] under [spec], then restore whatever was armed before (the CI
   chaos job arms TTSV_FAULTS at load; tests must not disarm it for
   their neighbours) *)
let with_spec spec f =
  let prev = Fault.current_spec () in
  (match Fault.configure spec with
  | Ok () -> ()
  | Error why -> Alcotest.fail (Printf.sprintf "spec %S rejected: %s" spec why));
  Fun.protect
    ~finally:(fun () ->
      match prev with
      | Some s -> ignore (Fault.configure s)
      | None -> Fault.disarm ())
    f

let with_disarmed f =
  let prev = Fault.current_spec () in
  Fault.disarm ();
  Fun.protect
    ~finally:(fun () ->
      match prev with Some s -> ignore (Fault.configure s) | None -> ())
    f

(* a fixed SPD system, deterministic and quick to solve *)
let fixed_system n =
  let b = Sparse.builder n n in
  for i = 0 to n - 1 do
    Sparse.add b i i (4. +. (0.01 *. float_of_int i));
    if i > 0 then Sparse.add b i (i - 1) (-1.);
    if i < n - 1 then Sparse.add b i (i + 1) (-1.)
  done;
  let a = Sparse.finalize b in
  let rhs = Array.init n (fun i -> cos (0.3 *. float_of_int i) +. 0.5) in
  (a, rhs)

let rel_residual a x rhs =
  let ax = Sparse.mat_vec a x in
  let num = ref 0. and den = ref 0. in
  Array.iteri
    (fun i bi ->
      let r = bi -. ax.(i) in
      num := !num +. (r *. r);
      den := !den +. (bi *. bi))
    rhs;
  sqrt (!num /. !den)

(* --------------------------------------------------------------- budgets *)

let budget_tests =
  [
    test "make validates its limits" (fun () ->
        check_raises_invalid "negative deadline" (fun () ->
            ignore (Budget.make ~deadline_s:(-1.) ()));
        check_raises_invalid "nan deadline" (fun () ->
            ignore (Budget.make ~deadline_s:Float.nan ()));
        check_raises_invalid "negative work" (fun () ->
            ignore (Budget.make ~max_work:(-1) ()));
        check_raises_invalid "split ways < 1" (fun () ->
            ignore (Budget.split (Budget.make ()) ~ways:0)));
    test "an unlimited budget never expires" (fun () ->
        let b = Budget.make () in
        Budget.tick ~n:1_000_000 b;
        Alcotest.(check bool) "holds" true (Budget.check b = None);
        Budget.check_exn b;
        Alcotest.(check bool) "infinite clock" true (Budget.remaining_s b = infinity));
    test "the work cap expires after exactly its ticks" (fun () ->
        let b = Budget.make ~max_work:3 () in
        Budget.tick b;
        Budget.tick b;
        Alcotest.(check bool) "still alive at 2/3" true (Budget.check b = None);
        Budget.tick b;
        Alcotest.(check bool)
          "work verdict" true
          (Budget.check b = Some Budget.Work_exhausted);
        Alcotest.(check int) "spent" 3 (Budget.work_spent b);
        match Budget.check_exn b with
        | () -> Alcotest.fail "expected Expired"
        | exception Budget.Expired Budget.Work_exhausted -> ()
        | exception Budget.Expired Budget.Deadline_exceeded ->
          Alcotest.fail "work must be checked before the clock");
    test "a zero deadline expires as soon as the clock moves" (fun () ->
        let b = Budget.make ~deadline_s:0. () in
        Unix.sleepf 2e-3;
        Alcotest.(check bool)
          "deadline verdict" true
          (Budget.check b = Some Budget.Deadline_exceeded);
        Alcotest.(check (float 0.)) "no time left" 0. (Budget.remaining_s b));
    test "work is checked before the clock (deterministic verdicts)" (fun () ->
        let b = Budget.make ~deadline_s:0. ~max_work:0 () in
        Unix.sleepf 2e-3;
        Alcotest.(check bool)
          "work wins" true
          (Budget.check b = Some Budget.Work_exhausted));
    test "split rations the clock but shares the work counter" (fun () ->
        let b = Budget.make ~deadline_s:10. ~max_work:2 () in
        let s = Budget.split b ~ways:2 in
        Alcotest.(check bool)
          "child gets about half the clock" true
          (Budget.remaining_s s <= 5.1);
        Alcotest.(check bool)
          "parent keeps its deadline" true
          (Budget.remaining_s b > 9.);
        Budget.tick s;
        Budget.tick s;
        Alcotest.(check bool)
          "ticks on the share exhaust the parent" true
          (Budget.check b = Some Budget.Work_exhausted));
    test "cg reports Budget_exhausted with the iterate so far" (fun () ->
        with_disarmed @@ fun () ->
        let a, rhs = fixed_system 50 in
        let b = Budget.make ~max_work:1 () in
        let r = Iterative.cg ~tol:1e-12 ~budget:b a rhs in
        Alcotest.(check bool) "not converged" false r.Iterative.converged;
        match r.Iterative.status with
        | Iterative.Budget_exhausted Budget.Work_exhausted -> ()
        | s ->
          Alcotest.fail
            (Format.asprintf "expected Budget_exhausted, got %a" Iterative.pp_status s));
    test "Robust.solve degrades to a typed Deadline_exceeded" (fun () ->
        let a, rhs = fixed_system 50 in
        let b = Budget.make ~deadline_s:0. () in
        Unix.sleepf 2e-3;
        match Robust.solve ~budget:b a rhs with
        | Ok _ -> Alcotest.fail "expected a deadline failure"
        | Error f -> (
          match f.Robust.reason with
          | Robust.Deadline_exceeded ->
            ignore (Format.asprintf "%a" Robust.pp_failure f)
          | Robust.Invalid_input _ | Robust.Exhausted ->
            Alcotest.fail "expected Deadline_exceeded"));
    test "an FV solve under an expired deadline is a typed partial result" (fun () ->
        let p = Problem.of_stack ~resolution:1 (Params.fig5_stack (Units.um 1.)) in
        let b = Budget.make ~deadline_s:0. () in
        Unix.sleepf 2e-3;
        match Solver.try_solve ~budget:b p with
        | Ok _ -> Alcotest.fail "expected a deadline failure"
        | Error f -> (
          match f.Robust.reason with
          | Robust.Deadline_exceeded -> ()
          | Robust.Invalid_input _ | Robust.Exhausted ->
            Alcotest.fail "expected Deadline_exceeded"));
    test "a generous budget changes nothing, bit for bit" (fun () ->
        (* disarmed: an ambient fault spec would advance the draw counter
           differently in the two runs and void the bitwise claim *)
        with_disarmed @@ fun () ->
        let a, rhs = fixed_system 80 in
        let reference = Iterative.cg ~tol:1e-10 a rhs in
        let budget = Budget.make ~deadline_s:3600. ~max_work:max_int () in
        let r = Iterative.cg ~tol:1e-10 ~budget a rhs in
        Alcotest.(check int) "iterations" reference.Iterative.iterations
          r.Iterative.iterations;
        Alcotest.(check (array (float 0.)))
          "solution" reference.Iterative.solution r.Iterative.solution);
  ]

(* ---------------------------------------------------------- fault engine *)

let fault_tests =
  [
    test "malformed specs are rejected and leave the engine unchanged" (fun () ->
        with_spec "matvec=0.5:42" @@ fun () ->
        List.iter
          (fun bad ->
            match Fault.configure bad with
            | Ok () -> Alcotest.fail (Printf.sprintf "accepted %S" bad)
            | Error _ -> ())
          [
            "";
            "gibberish";
            "matvec=0.5" (* no seed *);
            "matvec=1.5:1" (* rate out of range *);
            "matvec=-0.1:1";
            "bogus=0.5:1" (* unknown site *);
            "matvec=0.5,matvec=0.5:1" (* duplicate site *);
            "matvec=0.5:notanint";
          ];
        Alcotest.(check bool) "still armed" true (Fault.armed ());
        Alcotest.(check (option string))
          "previous spec kept" (Some "matvec=0.5:42") (Fault.current_spec ()));
    test "draws replay identically for the same spec and seed" (fun () ->
        let draws () = List.init 200 (fun _ -> Fault.fire "matvec") in
        let first = with_spec "matvec=0.4:1234" draws in
        let second = with_spec "matvec=0.4:1234" draws in
        Alcotest.(check (list bool)) "same sequence" first second;
        let other = with_spec "matvec=0.4:1235" draws in
        Alcotest.(check bool) "a different seed differs" true (first <> other);
        Alcotest.(check bool)
          "a 0.4 rate fires sometimes" true
          (List.mem true first && List.mem false first));
    test "rate endpoints: 0 never fires, 1 always fires" (fun () ->
        with_spec "matvec=0,precond=1:7" @@ fun () ->
        for _ = 1 to 100 do
          Alcotest.(check bool) "rate 0" false (Fault.fire "matvec");
          Alcotest.(check bool) "rate 1" true (Fault.fire "precond")
        done);
    test "unconfigured or unknown sites never fire" (fun () ->
        with_spec "matvec=1:3" @@ fun () ->
        Alcotest.(check bool) "worker not in spec" false (Fault.fire "worker");
        Alcotest.(check bool) "unknown site" false (Fault.fire "no-such-site"));
    test "disarm turns every probe into a no-op" (fun () ->
        with_disarmed @@ fun () ->
        Alcotest.(check bool) "disarmed" false (Fault.armed ());
        Alcotest.(check (option string)) "no spec" None (Fault.current_spec ());
        Alcotest.(check bool) "no fire" false (Fault.fire "matvec");
        Fault.raise_if "worker";
        let v = [| 1.; 2. |] in
        Fault.poison "matvec" v;
        Alcotest.(check (float 0.)) "no poison" 1. v.(0));
    test "poison writes a NaN and injected_total counts it" (fun () ->
        with_spec "matvec=1:5" @@ fun () ->
        let before = Fault.injected_total () in
        let v = [| 1.; 2. |] in
        Fault.poison "matvec" v;
        Alcotest.(check bool) "NaN written" true (Float.is_nan v.(0));
        Alcotest.(check (float 0.)) "rest untouched" 2. v.(1);
        Alcotest.(check bool) "counted" true (Fault.injected_total () > before));
    test "raise_if carries the site name" (fun () ->
        with_spec "worker=1:5" @@ fun () ->
        match Fault.raise_if "worker" with
        | () -> Alcotest.fail "expected Injected"
        | exception Fault.Injected site ->
          Alcotest.(check string) "site" "worker" site);
  ]

(* ------------------------------------------------------- crash containment *)

let containment_tests =
  [
    test "worker crashes are contained: results complete, failures counted" (fun () ->
        with_spec "worker=1:11" @@ fun () ->
        Pool.with_pool ~domains:4 @@ fun pool ->
        let n = 5000 in
        let counts = Array.make n 0 in
        Pool.parallel_for ~chunk:64 ~min_size:2 pool n (fun i ->
            counts.(i) <- counts.(i) + 1);
        Alcotest.(check bool)
          "every index once" true
          (Array.for_all (( = ) 1) counts);
        Alcotest.(check bool) "failures counted" true (Pool.worker_failures pool > 0);
        (* the pool survives: disarm and run again *)
        with_disarmed (fun () ->
            let counts = Array.make n 0 in
            Pool.parallel_for ~chunk:64 ~min_size:2 pool n (fun i ->
                counts.(i) <- counts.(i) + 1);
            Alcotest.(check bool)
              "usable after the crash" true
              (Array.for_all (( = ) 1) counts)));
    test "a pooled solve under worker crashes equals the fault-free solve" (fun () ->
        let a, rhs = fixed_system 300 in
        let reference = with_disarmed (fun () -> Robust.solve a rhs) in
        with_spec "worker=1:13" @@ fun () ->
        Pool.with_pool ~domains:4 @@ fun pool ->
        match (reference, Robust.solve ~pool a rhs) with
        | Ok (x_ref, _), Ok (x, _) ->
          Alcotest.(check (array (float 0.))) "identical solution" x_ref x
        | Ok _, Error f ->
          Alcotest.fail
            (Format.asprintf "degraded solve failed: %a" Robust.pp_failure f)
        | Error _, _ -> Alcotest.fail "fault-free reference failed");
    test "stalled workers only slow the pool down, never change results" (fun () ->
        let a, rhs = fixed_system 200 in
        let reference = with_disarmed (fun () -> Robust.solve a rhs) in
        with_spec "stall=0.5:17" @@ fun () ->
        Pool.with_pool ~domains:2 @@ fun pool ->
        match (reference, Robust.solve ~pool a rhs) with
        | Ok (x_ref, _), Ok (x, _) ->
          Alcotest.(check (array (float 0.))) "identical solution" x_ref x;
          Alcotest.(check int) "no failures" 0 (Pool.worker_failures pool)
        | Ok _, Error _ | Error _, _ -> Alcotest.fail "stall must not fail a solve");
    test "sequential fault replay is deterministic end to end" (fun () ->
        let a, rhs = fixed_system 120 in
        let spec = "matvec=0.05,precond=0.5:23" in
        let outcome () =
          match Robust.solve a rhs with
          | Ok (x, d) -> Ok (x, List.length d.Diagnostics.attempts)
          | Error f -> Error f.Robust.reason
        in
        let first = with_spec spec outcome in
        let second = with_spec spec outcome in
        match (first, second) with
        | Ok (x1, n1), Ok (x2, n2) ->
          Alcotest.(check int) "same ladder path" n1 n2;
          Alcotest.(check (array (float 0.))) "same solution" x1 x2
        | Error r1, Error r2 ->
          Alcotest.(check bool) "same reason" true (r1 = r2)
        | _ -> Alcotest.fail "runs under the same spec diverged");
    test "injected preconditioner failures surface as Skipped attempts" (fun () ->
        let a, rhs = fixed_system 150 in
        with_spec "precond=1:29" @@ fun () ->
        match Robust.solve a rhs with
        | Error f ->
          Alcotest.fail (Format.asprintf "ladder gave up: %a" Robust.pp_failure f)
        | Ok (x, d) ->
          with_disarmed (fun () ->
              Alcotest.(check bool)
                "genuinely converged" true
                (rel_residual a x rhs <= 1e-6));
          let skipped =
            List.exists
              (fun (at : Diagnostics.attempt) ->
                match at.Diagnostics.outcome with
                | Diagnostics.Skipped _ -> true
                | Diagnostics.Success | Diagnostics.Iterative_failure _
                | Diagnostics.Singular | Diagnostics.Residual_too_large _ -> false)
              d.Diagnostics.attempts
          in
          Alcotest.(check bool) "some rung skipped" true skipped);
    test "an injected multigrid construction fault degrades to the IC(0) rung" (fun () ->
        (* seed 0 was probed to make the first precond-site draw (the mg
           build) fire and the second (the ic0 build) pass, so a ladder
           pinned with mg on top loses that rung and IC(0) answers *)
        let stack = Params.fig5_stack (Units.um 1.) in
        let p = Problem.of_stack ~resolution:1 stack in
        let a = Solver.assemble p in
        let g = p.Problem.grid in
        let shape = [| Ttsv_fem.Grid.nr g; Ttsv_fem.Grid.nz g |] in
        with_spec "precond=0.5:0" @@ fun () ->
        match
          Robust.solve
            ~rungs:Diagnostics.[ Cg_mg; Cg_ic0; Cg; Direct ]
            ~shape a p.Problem.source
        with
        | Error f ->
          Alcotest.fail (Format.asprintf "ladder gave up: %a" Robust.pp_failure f)
        | Ok (_, d) ->
          (match d.Diagnostics.solved_by with
          | Some Diagnostics.Cg_ic0 -> ()
          | Some r ->
            Alcotest.fail ("expected the ic0 rung, got " ^ Diagnostics.rung_name r)
          | None -> Alcotest.fail "no rung recorded");
          (match d.Diagnostics.attempts with
          | { Diagnostics.rung = Diagnostics.Cg_mg;
              outcome = Diagnostics.Skipped why;
              _
            }
            :: _ ->
            Alcotest.(check string)
              "skip reason" "mg: injected construction fault" why
          | _ -> Alcotest.fail "first attempt was not a skipped multigrid rung"));
    test "with every preconditioner build failing, Jacobi-CG answers" (fun () ->
        (* precond=1 fails the IC(0) construction; Jacobi-CG has none,
           so it is the first rung that runs, and it converges.  The
           grid shape puts no multigrid rung on the default ladder *)
        let p = Problem.of_stack ~resolution:1 (Params.fig5_stack (Units.um 1.)) in
        let a = Solver.assemble p in
        let g = p.Problem.grid in
        let shape = [| Ttsv_fem.Grid.nr g; Ttsv_fem.Grid.nz g |] in
        with_spec "precond=1:3" @@ fun () ->
        match Robust.solve ~shape a p.Problem.source with
        | Error f ->
          Alcotest.fail (Format.asprintf "ladder gave up: %a" Robust.pp_failure f)
        | Ok (_, d) ->
          Alcotest.(check (list (pair string string)))
            "attempts"
            [ ("cg-ic0", "skipped: ic0: injected construction fault"); ("cg", "ok") ]
            (List.map
               (fun (at : Diagnostics.attempt) ->
                 ( Diagnostics.rung_name at.Diagnostics.rung,
                   Format.asprintf "%a" Diagnostics.pp_outcome at.Diagnostics.outcome ))
               d.Diagnostics.attempts));
    test "a work budget expiring mid-V-cycle is a typed Deadline_exceeded" (fun () ->
        (* 50 work units let the hierarchy build and a few CG+V-cycle
           iterations complete, then the cycle's own matvec ticks
           exhaust the budget mid-cycle: the mg rung records its best
           iterate and the ladder's next-rung check converts the expiry
           into the typed deadline failure carrying that iterate.
           Disarmed: an ambient spec can skip rungs or corrupt matvecs,
           changing where the fixed work budget runs out *)
        with_disarmed @@ fun () ->
        let stack = Params.fig5_stack (Units.um 1.) in
        let p = Problem.of_stack ~resolution:1 stack in
        let b = Budget.make ~max_work:50 () in
        match
          Solver.try_solve ~rungs:Diagnostics.[ Cg_mg; Cg_ic0; Cg; Direct ] ~budget:b p
        with
        | Ok _ -> Alcotest.fail "expected a budget failure"
        | Error f ->
          (match f.Robust.reason with
          | Robust.Deadline_exceeded -> ()
          | Robust.Invalid_input _ | Robust.Exhausted ->
            Alcotest.fail "expected Deadline_exceeded");
          Alcotest.(check bool)
            "the solver's work actually ticked the budget" true
            (Budget.work_spent b >= 50);
          (match f.Robust.best with
          | Some x -> Alcotest.(check int) "best iterate has full dimension"
              (Array.length p.Problem.source) (Array.length x)
          | None -> Alcotest.fail "no best iterate carried out of the expiry");
          ignore (Format.asprintf "%a" Robust.pp_failure f));
  ]

(* ------------------------------------------------------- chaos properties *)

let gen_fault_spec =
  let open QCheck2.Gen in
  let* m = float_range 0. 0.3 in
  let* p = float_range 0. 1. in
  let* w = float_range 0. 1. in
  let* s = float_range 0. 0.2 in
  let* seed = int_range 1 1_000_000 in
  return (Printf.sprintf "matvec=%.3f,precond=%.3f,worker=%.3f,stall=%.3f:%d" m p w s seed)

(* the central chaos property: whatever the armed spec, [Robust.solve]
   either converges for real (checked against the disarmed matrix) or
   returns a typed non-input failure — exceptions and hangs fail the
   qcheck harness on their own *)
let solve_is_typed ?pool a rhs =
  match Robust.solve ?pool a rhs with
  | Ok (x, _) ->
    with_disarmed (fun () -> rel_residual a x rhs <= 1e-6)
  | Error f -> (
    match f.Robust.reason with
    | Robust.Invalid_input _ -> false (* a healthy system must not be rejected *)
    | Robust.Exhausted | Robust.Deadline_exceeded -> true)

let property_tests =
  [
    qtest ~count:25 "chaos: any fault spec yields convergence or a typed failure"
      QCheck2.Gen.(pair (gen_spd 40) (pair (gen_vec 40) gen_fault_spec))
      (fun (a, (rhs, spec)) -> with_spec spec (fun () -> solve_is_typed a rhs));
    qtest ~count:10 "chaos: pooled solves under faults stay typed (2 domains)"
      QCheck2.Gen.(pair (gen_spd 40) (pair (gen_vec 40) gen_fault_spec))
      (fun (a, (rhs, spec)) ->
        with_spec spec (fun () ->
            Pool.with_pool ~domains:2 (fun pool -> solve_is_typed ~pool a rhs)));
    qtest ~count:10 "chaos: faults plus a work cap still yield a typed outcome"
      QCheck2.Gen.(
        pair (gen_spd 40) (pair (gen_vec 40) (pair gen_fault_spec (int_range 0 200))))
      (fun (a, (rhs, (spec, cap))) ->
        with_spec spec (fun () ->
            let budget = Budget.make ~max_work:cap () in
            match Robust.solve ~budget a rhs with
            | Ok (x, _) -> with_disarmed (fun () -> rel_residual a x rhs <= 1e-6)
            | Error f -> (
              match f.Robust.reason with
              | Robust.Invalid_input _ -> false
              | Robust.Exhausted | Robust.Deadline_exceeded -> true)));
    test "the ambient spec (TTSV_FAULTS, when set) is contained too" (fun () ->
        (* disarmed under plain `dune runtest`; the CI chaos job arms it *)
        let a, rhs = fixed_system 90 in
        for _ = 1 to 10 do
          Alcotest.(check bool) "typed outcome" true (solve_is_typed a rhs)
        done);
  ]

(* ------------------------------------------------- diagnostics serialization *)

let diagnostics_tests =
  [
    test "to_json with NaN/Inf residuals is valid JSON and parses back" (fun () ->
        let attempt rung outcome residual wall =
          { Diagnostics.rung; outcome; iterations = 3; residual; wall_time = wall }
        in
        let d =
          {
            Diagnostics.attempts =
              [
                attempt Diagnostics.Cg_ic0
                  (Diagnostics.Iterative_failure (Iterative.Non_finite "iterates"))
                  Float.nan infinity;
                attempt Diagnostics.Direct
                  (Diagnostics.Residual_too_large infinity)
                  neg_infinity 0.;
                attempt Diagnostics.Cg
                  (Diagnostics.Iterative_failure
                     (Iterative.Budget_exhausted Budget.Deadline_exceeded))
                  0.5 1e-3;
              ];
            solved_by = None;
            iterations = 3;
            residual = Float.nan;
            trace = [| 1.; Float.nan; infinity; neg_infinity |];
            wall_time = Float.nan;
          }
        in
        let s = Json.to_string (Diagnostics.to_json d) in
        Alcotest.(check bool)
          "no bare nan token" false
          (let lower = String.lowercase_ascii s in
           let contains needle =
             let nl = String.length needle and l = String.length lower in
             let rec go i = i + nl <= l && (String.sub lower i nl = needle || go (i + 1)) in
             go 0
           in
           contains "nan" || contains "inf");
        match Json.parse s with
        | Ok reparsed ->
          (* the non-finite floats degrade to null, by JSON necessity *)
          (match Json.member "residual" reparsed with
          | Some Json.Null -> ()
          | Some _ | None -> Alcotest.fail "NaN residual must serialize as null");
          (match Json.member "trace" reparsed with
          | Some (Json.List [ _; Json.Null; Json.Null; Json.Null ]) -> ()
          | Some _ | None -> Alcotest.fail "non-finite trace entries must be null")
        | Error e -> Alcotest.fail ("diagnostics JSON does not parse: " ^ e));
    test "a real failure's diagnostics serialize and parse" (fun () ->
        let a, rhs = fixed_system 30 in
        rhs.(0) <- Float.nan;
        match Robust.solve a rhs with
        | Ok _ -> Alcotest.fail "NaN input must be rejected"
        | Error f -> (
          match Json.parse (Json.to_string (Diagnostics.to_json f.Robust.diagnostics)) with
          | Ok _ -> ()
          | Error e -> Alcotest.fail ("failure diagnostics do not parse: " ^ e)));
  ]

(* --------------------------------------------------- checkpoint / resume *)

let tmp_file () = Filename.temp_file "ttsv_chaos_cp" ".jsonl"

let copy_first_lines src dst n =
  In_channel.with_open_bin src @@ fun ic ->
  Out_channel.with_open_bin dst @@ fun oc ->
  (try
     for _ = 1 to n do
       Out_channel.output_string oc (input_line ic);
       Out_channel.output_char oc '\n'
     done
   with End_of_file -> ())

let bits = Array.map Int64.bits_of_float

let series_bits (fig : E.Report.figure) =
  List.map (fun (s : E.Report.series) -> (s.E.Report.label, bits s.E.Report.ys)) fig.E.Report.series

let check_same_series reference resumed =
  List.iter2
    (fun (label, ref_ys) (label', ys) ->
      Alcotest.(check string) "series" label label';
      Alcotest.(check (array int64)) label ref_ys ys)
    (series_bits reference) (series_bits resumed)

(* awkward floats on purpose: non-terminating binary fractions,
   subnormal-adjacent magnitudes, negative zero.  (A sweep value that
   overflows to inf cannot round-trip — JSON has no inf literal, so it
   records as null and the point recomputes on resume: still correct,
   just uncached — hence no max_float here.) *)
let awkward_points = [ 0.1; 1. /. 3.; 1e-300; -0.; 1e153; 4.25 ]

let checkpoint_tests =
  [
    test "record, close, resume: every point is found again" (fun () ->
        let path = tmp_file () in
        Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
        E.Checkpoint.with_file path (fun cp ->
            E.Checkpoint.record cp ~stage:"s" 0 (Json.Float 1.5);
            E.Checkpoint.record cp ~stage:"s" 2 (Json.List [ Json.Int 7 ]);
            E.Checkpoint.record cp ~stage:"other" 0 (Json.String "x"));
        E.Checkpoint.with_file ~resume:true path (fun cp ->
            Alcotest.(check int) "three records" 3 (E.Checkpoint.completed_count cp);
            (match E.Checkpoint.find cp ~stage:"s" 0 with
            | Some (Json.Float f) -> Alcotest.(check (float 0.)) "value" 1.5 f
            | Some _ | None -> Alcotest.fail "point (s,0) lost");
            Alcotest.(check bool)
              "uncompleted point absent" true
              (E.Checkpoint.find cp ~stage:"s" 1 = None);
            Alcotest.(check bool)
              "stages are namespaced" true
              (E.Checkpoint.find cp ~stage:"other" 2 = None)));
    test "a torn final line (kill mid-write) is skipped, not fatal" (fun () ->
        let path = tmp_file () in
        Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
        E.Checkpoint.with_file path (fun cp ->
            E.Checkpoint.record cp ~stage:"s" 0 (Json.Float 1.);
            E.Checkpoint.record cp ~stage:"s" 1 (Json.Float 2.));
        (* simulate the kill: truncate the last record mid-JSON *)
        let text = In_channel.with_open_bin path In_channel.input_all in
        Out_channel.with_open_bin path (fun oc ->
            Out_channel.output_string oc (String.sub text 0 (String.length text - 9)));
        E.Checkpoint.with_file ~resume:true path (fun cp ->
            Alcotest.(check int) "only the intact record" 1 (E.Checkpoint.completed_count cp);
            Alcotest.(check bool) "torn point gone" true (E.Checkpoint.find cp ~stage:"s" 1 = None);
            (* and the file still appends *)
            E.Checkpoint.record cp ~stage:"s" 1 (Json.Float 2.);
            Alcotest.(check bool) "re-recorded" true (E.Checkpoint.find cp ~stage:"s" 1 <> None)));
    test "resumed sweep: only missing points recompute, bitwise-identical results"
      (fun () ->
        let f x = (x *. 3.1) +. sin x in
        let full = E.Sweep.map f awkward_points in
        let path = tmp_file () and partial = tmp_file () in
        Fun.protect ~finally:(fun () ->
            Sys.remove path;
            Sys.remove partial)
        @@ fun () ->
        let recorded =
          E.Checkpoint.with_file path (fun cp ->
              E.Sweep.map ~checkpoint:(E.Sweep.float_stage cp "t") f awkward_points)
        in
        Alcotest.(check (array int64)) "checkpointed run identical" (bits full)
          (bits recorded);
        (* keep only the first half of the records, as a kill would *)
        copy_first_lines path partial 3;
        let calls = ref 0 in
        let resumed =
          E.Checkpoint.with_file ~resume:true partial (fun cp ->
              E.Sweep.map
                ~checkpoint:(E.Sweep.float_stage cp "t")
                (fun x ->
                  incr calls;
                  f x)
                awkward_points)
        in
        Alcotest.(check int) "only the unfinished points re-solved" 3 !calls;
        Alcotest.(check (array int64)) "resumed run bitwise identical" (bits full)
          (bits resumed));
    test "a fully recorded sweep resumes with zero recomputation" (fun () ->
        let f x = x *. x in
        let path = tmp_file () in
        Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
        let full =
          E.Checkpoint.with_file path (fun cp ->
              E.Sweep.map ~checkpoint:(E.Sweep.float_stage cp "t") f awkward_points)
        in
        let resumed =
          E.Checkpoint.with_file ~resume:true path (fun cp ->
              E.Sweep.map
                ~checkpoint:(E.Sweep.float_stage cp "t")
                (fun _ -> Alcotest.fail "a completed point was recomputed")
                awkward_points)
        in
        Alcotest.(check (array int64)) "loaded bitwise" (bits full) (bits resumed));
    test "pooled sweeps checkpoint from worker domains safely" (fun () ->
        let f x = sin x +. (2. *. x) in
        let xs = List.init 40 (fun i -> 0.1 *. float_of_int i) in
        let full = E.Sweep.map f xs in
        let path = tmp_file () in
        Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
        let pooled =
          Pool.with_pool ~domains:4 @@ fun pool ->
          E.Checkpoint.with_file path (fun cp ->
              E.Sweep.map ~pool ~checkpoint:(E.Sweep.float_stage cp "t") f xs)
        in
        Alcotest.(check (array int64)) "pooled+checkpointed identical" (bits full)
          (bits pooled);
        E.Checkpoint.with_file ~resume:true path (fun cp ->
            Alcotest.(check int)
              "every point recorded exactly once" (List.length xs)
              (E.Checkpoint.completed_count cp)));
    test "fig5 resumed from a truncated checkpoint is bitwise identical" (fun () ->
        (* disarmed: the FV reference solves inside fig5 are only
           run-to-run deterministic when no faults perturb the ladder *)
        with_disarmed @@ fun () ->
        let reference = E.Figures.run ~resolution:1 E.Figures.fig5 in
        let path = tmp_file () and partial = tmp_file () in
        Fun.protect ~finally:(fun () ->
            Sys.remove path;
            Sys.remove partial)
        @@ fun () ->
        ignore
          (E.Checkpoint.with_file path (fun cp ->
               E.Figures.run ~resolution:1 ~checkpoint:cp E.Figures.fig5));
        copy_first_lines path partial 17;
        let resumed =
          E.Checkpoint.with_file ~resume:true partial (fun cp ->
              E.Figures.run ~resolution:1 ~checkpoint:cp E.Figures.fig5)
        in
        check_same_series reference resumed);
    test "every figure records every point and resumes bitwise" (fun () ->
        with_disarmed @@ fun () ->
        let lines path = List.length (In_channel.with_open_bin path In_channel.input_lines) in
        (* one record per curve and point: fig5 has seven curves, the
           others four *)
        let counts =
          [ ("fig4", 52); ("fig5", 42); ("fig6", 44); ("fig7", 20); ("nplanes", 24) ]
        in
        List.iter
          (fun fig ->
            let name = E.Figures.name fig in
            let records = List.assoc name counts in
            let run checkpoint = E.Figures.run ~resolution:1 ?checkpoint fig in
            let reference = run None in
            let path = tmp_file () and partial = tmp_file () in
            Fun.protect ~finally:(fun () ->
                Sys.remove path;
                Sys.remove partial)
            @@ fun () ->
            ignore (E.Checkpoint.with_file path (fun cp -> run (Some cp)));
            Alcotest.(check int) (name ^ " records") records (lines path);
            copy_first_lines path partial (records / 2);
            check_same_series reference
              (E.Checkpoint.with_file ~resume:true partial (fun cp -> run (Some cp))))
          E.Figures.all);
    test "a decode rejecting a record recomputes that point" (fun () ->
        let path = tmp_file () in
        Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
        E.Checkpoint.with_file path (fun cp ->
            E.Checkpoint.record cp ~stage:"t" 0 (Json.String "not a float"));
        E.Checkpoint.with_file ~resume:true path (fun cp ->
            let calls = ref 0 in
            let out =
              E.Sweep.map
                ~checkpoint:(E.Sweep.float_stage cp "t")
                (fun x ->
                  incr calls;
                  x +. 1.)
                [ 41. ]
            in
            Alcotest.(check int) "recomputed" 1 !calls;
            Alcotest.(check (float 0.)) "fresh value" 42. out.(0)));
  ]

let suite =
  ( "chaos",
    budget_tests @ fault_tests @ containment_tests @ property_tests @ diagnostics_tests
    @ checkpoint_tests )
