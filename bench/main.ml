(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation section (Figs. 4-7, Table I, the section IV-E case study), the
   ablations, and a Bechamel microbenchmark suite with one Test.make per
   reproduced artefact.

   Usage:
     dune exec bench/main.exe             # everything
     dune exec bench/main.exe -- fig5     # one artefact
     dune exec bench/main.exe -- micro    # microbenchmarks only
     dune exec bench/main.exe -- parallel # pool scaling, writes BENCH_parallel.json
     dune exec bench/main.exe -- precond  # preconditioner ladder, BENCH_precond.json
     dune exec bench/main.exe -- multigrid # mesh-independence sweep, BENCH_multigrid.json
     dune exec bench/main.exe -- service  # batch engine throughput, BENCH_service.json
   Artefacts: fig4 fig5 fig6 fig7 table1 case ablation convergence shape
   sensitivity nplanes variation nonlinear fillers micro parallel precond
   multigrid service

   TTSV_BENCH_SMALL=1 shrinks the precond, multigrid and service benches
   to the small 2-D grids (and 1/2 domains) — the CI perf-smoke
   configuration. *)

module E = Ttsv_experiments
module Params = Ttsv_core.Params
module Model_a = Ttsv_core.Model_a
module Model_b = Ttsv_core.Model_b
module Model_1d = Ttsv_core.Model_1d
module Closed_form = Ttsv_core.Closed_form
module Resistances = Ttsv_core.Resistances
module Units = Ttsv_physics.Units
module Problem = Ttsv_fem.Problem
module Solver = Ttsv_fem.Solver

let ppf = Format.std_formatter

(* one Bechamel Test.make per reproduced table/figure kernel *)
let micro_tests () =
  let open Bechamel in
  let stack = Params.fig5_stack (Units.um 1.) in
  let coeffs = Ttsv_core.Coefficients.paper_block in
  let qs = Ttsv_geometry.Stack.heat_inputs stack in
  let rs = Resistances.of_stack ~coeffs stack in
  let fig4_stack = Params.fig4_stack (Units.um 10.) in
  let fig7_stack = Params.fig7_stack () in
  let case_stack, _ = Params.case_study () in
  let problem = Problem.of_stack stack in
  [
    Test.make ~name:"fig4:model_a_solve" (Staged.stage (fun () -> Model_a.solve ~coeffs fig4_stack));
    Test.make ~name:"fig5:model_b_100" (Staged.stage (fun () -> Model_b.solve_n stack 100));
    Test.make ~name:"table1:model_b_500" (Staged.stage (fun () -> Model_b.solve_n stack 500));
    Test.make ~name:"fig6:closed_form_3plane"
      (Staged.stage (fun () -> Closed_form.solve rs ~q1:qs.(0) ~q2:qs.(1) ~q3:qs.(2)));
    Test.make ~name:"fig7:cluster_eq22"
      (Staged.stage (fun () -> Ttsv_core.Cluster.solve ~coeffs fig7_stack 9));
    Test.make ~name:"case:model_b_1000" (Staged.stage (fun () -> Model_b.solve_n case_stack 1000));
    Test.make ~name:"case:model_1d" (Staged.stage (fun () -> Model_1d.solve case_stack));
    Test.make ~name:"ref:fv_assemble_solve" (Staged.stage (fun () -> Solver.solve problem));
  ]

let run_micro () =
  let open Bechamel in
  let open Toolkit in
  E.Report.heading ppf "Microbenchmarks (Bechamel, one per table/figure kernel)";
  Format.fprintf ppf "@.";
  let tests = Test.make_grouped ~name:"ttsv" (micro_tests ()) in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:None () in
  let raw = Benchmark.all cfg Instance.[ monotonic_clock ] tests in
  let ols =
    Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let rows = Hashtbl.fold (fun name v acc -> (name, v) :: acc) results [] in
  let rows = List.sort (fun (a, _) (b, _) -> compare a b) rows in
  List.iter
    (fun (name, est) ->
      match Analyze.OLS.estimates est with
      | Some [ ns ] ->
        Format.fprintf ppf "%-32s %12.1f ns/run (%.3f ms)@." name ns (ns /. 1e6)
      | Some _ | None -> Format.fprintf ppf "%-32s (no estimate)@." name)
    rows

(* Pool scaling: wall time of the pooled artefacts at 1/2/4/8 domains,
   printed and written to BENCH_parallel.json (hand-rolled JSON - the
   build deliberately has no JSON dependency).  Speedups are measured on
   whatever cores the host actually has; the determinism tests, not this
   bench, guarantee the pooled results themselves. *)
module Pool = Ttsv_parallel.Pool
module Problem3 = Ttsv_fem.Problem3
module Solver3 = Ttsv_fem.Solver3
module Obs_metrics = Ttsv_obs.Metrics

(* [phases] is the per-run span breakdown harvested from the metrics
   registry: one (span name, completions, summed seconds) triple per
   "span.*" histogram observed during that run *)
type parallel_run = {
  domains : int;
  wall_s : float;
  iterations : int;
  phases : (string * int * float) list;
}

type parallel_result = { artefact : string; runs : parallel_run list }

let phases_of_snapshot snap =
  List.filter_map
    (fun (name, sample) ->
      match sample with
      | Obs_metrics.H h when String.length name > 5 && String.sub name 0 5 = "span." ->
        Some (String.sub name 5 (String.length name - 5), h.Obs_metrics.count, h.Obs_metrics.sum)
      | _ -> None)
    snap

let bench_json_path = "BENCH_parallel.json"
let bench_domains = [ 1; 2; 4; 8 ]

let time f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

(* each artefact maps a pool to its iteration count (0 when meaningless) *)
let parallel_artefacts () =
  let stack = Params.fig5_stack (Units.um 1.) in
  [
    ( "solve3_fig5",
      fun pool ->
        let p = Problem3.of_stack ~resolution:1 ?pool stack in
        (Solver3.solve ?pool p).Solver3.iterations );
    ( "solve_fv_fig5",
      fun pool ->
        (Solver.solve ?pool (Problem.of_stack ~resolution:3 stack)).Solver.iterations );
    ( "fig5_sweep",
      fun pool ->
        ignore (E.Fig5.run ~resolution:1 ?pool ());
        0 );
    ( "variation_mc",
      fun pool ->
        ignore (E.Variation.run ?pool ());
        0 );
  ]

(* shared run-array rendering: the precond bench nests the same run
   objects one level deeper, so the phase-breakdown schema stays
   identical across BENCH_parallel.json and BENCH_precond.json *)
let buffer_runs buf ~indent runs =
  let base = match runs with { wall_s; _ } :: _ -> wall_s | [] -> Float.nan in
  Buffer.add_string buf (indent ^ "\"runs\": [\n");
  List.iteri
    (fun j { domains; wall_s; iterations; phases } ->
      let phases_json =
        String.concat ", "
          (List.map
             (fun (name, count, sum_s) ->
               Printf.sprintf "{ \"name\": \"%s\", \"count\": %d, \"sum_s\": %.6f }" name
                 count sum_s)
             phases)
      in
      Buffer.add_string buf
        (Printf.sprintf
           "%s  { \"domains\": %d, \"wall_s\": %.6f, \"speedup\": %.3f, \
            \"iterations\": %d, \"phases\": [%s] }%s\n"
           indent domains wall_s (base /. wall_s) iterations phases_json
           (if j = List.length runs - 1 then "" else ",")))
    runs;
  Buffer.add_string buf (indent ^ "]\n")

let json_of_results results =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "{\n";
  Buffer.add_string buf "  \"bench\": \"parallel\",\n";
  Buffer.add_string buf
    (Printf.sprintf "  \"host_domains\": %d,\n" (Domain.recommended_domain_count ()));
  Buffer.add_string buf "  \"artefacts\": [\n";
  List.iteri
    (fun i r ->
      Buffer.add_string buf (Printf.sprintf "    {\n      \"name\": \"%s\",\n" r.artefact);
      buffer_runs buf ~indent:"      " r.runs;
      Buffer.add_string buf
        (Printf.sprintf "    }%s\n" (if i = List.length results - 1 then "" else ",")))
    results;
  Buffer.add_string buf "  ]\n}\n";
  Buffer.contents buf

let run_parallel () =
  E.Report.heading ppf "Parallel scaling (domain pool wall time per artefact)";
  (* force the memoized FV calibration outside every timed region *)
  ignore (E.Reference.block_coefficients ());
  (* metrics on for the whole bench so every timed run also yields its
     span.* phase breakdown; the registry is reset per run so the
     harvested snapshot belongs to exactly that (artefact, domains) pair *)
  let metrics_were_on = Ttsv_obs.Flags.metrics_on () in
  Ttsv_obs.Config.enable_metrics ();
  let results =
    List.map
      (fun (artefact, f) ->
        Format.fprintf ppf "@.%s:@." artefact;
        let runs =
          List.map
            (fun domains ->
              Obs_metrics.reset ();
              let pool = Pool.create ~domains () in
              let iterations, wall_s =
                Fun.protect ~finally:(fun () -> Pool.shutdown pool) (fun () ->
                    time (fun () -> f (Some pool)))
              in
              let phases = phases_of_snapshot (Obs_metrics.snapshot ()) in
              { domains; wall_s; iterations; phases })
            bench_domains
        in
        let base = match runs with { wall_s; _ } :: _ -> wall_s | [] -> Float.nan in
        List.iter
          (fun { domains; wall_s; iterations; _ } ->
            Format.fprintf ppf "  domains=%d  %8.3f s  speedup %5.2fx%s@." domains wall_s
              (base /. wall_s)
              (if iterations > 0 then Printf.sprintf "  (%d solver iterations)" iterations
               else ""))
          runs;
        { artefact; runs })
      (parallel_artefacts ())
  in
  if not metrics_were_on then Ttsv_obs.Config.disable_metrics ();
  let oc = open_out bench_json_path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (json_of_results results));
  Format.fprintf ppf "@.wrote %s@." bench_json_path

(* ----------------------------------------------------------------- precond *)

module Diagnostics = Ttsv_robust.Diagnostics

(* Preconditioner shoot-out: the same artefacts solved with the ladder
   pinned to exactly one preconditioner, so the per-run iteration counts
   (and wall times) are attributable to that preconditioner alone.
   Writes BENCH_precond.json with the same per-run phase-breakdown
   schema as BENCH_parallel.json, one level deeper (artefact ->
   preconditioner -> runs). *)
let precond_json_path = "BENCH_precond.json"

let precond_rungs =
  [
    ("ic0", [ Diagnostics.Cg_ic0 ]);
    ("jacobi", [ Diagnostics.Cg ]);
  ]

type precond_result = {
  p_artefact : string;
  by_precond : (string * parallel_run list) list;
}

(* TTSV_BENCH_SMALL shrinks the bench to the resolution-1 2-D grid at
   1/2 domains: seconds instead of minutes, for the CI perf-smoke job *)
let precond_small () =
  match Sys.getenv_opt "TTSV_BENCH_SMALL" with Some "" | None -> false | Some _ -> true

let precond_artefacts ~small () =
  let stack = Params.fig5_stack (Units.um 1.) in
  ( "solve_fv_fig5",
    fun pool rungs ->
      let p = Problem.of_stack ~resolution:(if small then 1 else 3) stack in
      (Solver.solve ?pool ~rungs p).Solver.iterations )
  ::
  (if small then []
   else
     [
       ( "solve3_fig5",
         fun pool rungs ->
           let p = Problem3.of_stack ~resolution:1 ?pool stack in
           (Solver3.solve ?pool ~rungs p).Solver3.iterations );
     ])

let json_of_precond_results results =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "{\n";
  Buffer.add_string buf "  \"bench\": \"precond\",\n";
  Buffer.add_string buf
    (Printf.sprintf "  \"host_domains\": %d,\n" (Domain.recommended_domain_count ()));
  Buffer.add_string buf "  \"artefacts\": [\n";
  List.iteri
    (fun i r ->
      Buffer.add_string buf
        (Printf.sprintf "    {\n      \"name\": \"%s\",\n" r.p_artefact);
      Buffer.add_string buf "      \"preconds\": [\n";
      List.iteri
        (fun k (pname, runs) ->
          Buffer.add_string buf
            (Printf.sprintf "        {\n          \"name\": \"%s\",\n" pname);
          buffer_runs buf ~indent:"          " runs;
          Buffer.add_string buf
            (Printf.sprintf "        }%s\n"
               (if k = List.length r.by_precond - 1 then "" else ",")))
        r.by_precond;
      Buffer.add_string buf "      ]\n";
      Buffer.add_string buf
        (Printf.sprintf "    }%s\n" (if i = List.length results - 1 then "" else ",")))
    results;
  Buffer.add_string buf "  ]\n}\n";
  Buffer.contents buf

let run_precond () =
  let small = precond_small () in
  E.Report.heading ppf
    (if small then "Preconditioner comparison (small CI grid)"
     else "Preconditioner comparison (iterations and wall time per rung)");
  ignore (E.Reference.block_coefficients ());
  let domains = if small then [ 1; 2 ] else [ 1; 2; 4 ] in
  let metrics_were_on = Ttsv_obs.Flags.metrics_on () in
  Ttsv_obs.Config.enable_metrics ();
  let results =
    List.map
      (fun (artefact, f) ->
        Format.fprintf ppf "@.%s:@." artefact;
        let by_precond =
          List.map
            (fun (pname, rungs) ->
              let runs =
                List.map
                  (fun d ->
                    Obs_metrics.reset ();
                    let pool = Pool.create ~domains:d () in
                    let iterations, wall_s =
                      Fun.protect
                        ~finally:(fun () -> Pool.shutdown pool)
                        (fun () -> time (fun () -> f (Some pool) rungs))
                    in
                    let phases = phases_of_snapshot (Obs_metrics.snapshot ()) in
                    { domains = d; wall_s; iterations; phases })
                  domains
              in
              let base =
                match runs with { wall_s; _ } :: _ -> wall_s | [] -> Float.nan
              in
              List.iter
                (fun { domains; wall_s; iterations; _ } ->
                  Format.fprintf ppf
                    "  %-7s domains=%d  %8.3f s  speedup %5.2fx  (%d iterations)@." pname
                    domains wall_s (base /. wall_s) iterations)
                runs;
              (pname, runs))
            precond_rungs
        in
        (* the headline number: how far IC(0) cuts the Jacobi iteration count *)
        (match
           ( List.assoc_opt "ic0" by_precond,
             List.assoc_opt "jacobi" by_precond )
         with
        | Some ({ iterations = ic0; _ } :: _), Some ({ iterations = jac; _ } :: _)
          when ic0 > 0 ->
          Format.fprintf ppf "  ic0 vs jacobi: %d vs %d iterations (%.1fx fewer)@." ic0 jac
            (float_of_int jac /. float_of_int ic0)
        | _ -> ());
        { p_artefact = artefact; by_precond })
      (precond_artefacts ~small ())
  in
  if not metrics_were_on then Ttsv_obs.Config.disable_metrics ();
  let oc = open_out precond_json_path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (json_of_precond_results results));
  Format.fprintf ppf "@.wrote %s@." precond_json_path

(* --------------------------------------------------------------- multigrid *)

(* Mesh-independence evidence for the multigrid rung: CG iteration
   counts under the mg and ic0 preconditioners across a resolution
   sweep of the 2-D unit cell and the 3-D chip stack.  An incomplete
   factorisation's iteration count grows with resolution; the V-cycle's
   must stay near-constant — [obs_check multigrid] gates on the ratio
   between the finest and coarsest sweep entries.  Iteration counts are
   deterministic, so the gate is noise-free; wall times are
   informational.  Writes BENCH_multigrid.json. *)
let multigrid_json_path = "BENCH_multigrid.json"

(* the finest-over-coarsest mg iteration growth the gate tolerates;
   recorded in the JSON so the check and the artefact can't drift *)
let multigrid_growth_limit = 1.5

let multigrid_preconds =
  [ ("mg", [ Diagnostics.Cg_mg ]); ("ic0", [ Diagnostics.Cg_ic0 ]) ]

(* per preconditioner: (iterations, wall seconds, span phase breakdown)
   — the phases separate mg's one-time hierarchy setup (mg.setup) from
   the per-iteration cycling (mg.cycle, with mg.smooth nested inside) *)
type mg_point = { cells : int; by_rung : (string * (int * float * (string * int * float) list)) list }
type mg_case = { m_artefact : string; points : (int * mg_point) list }

let multigrid_cases ~small () =
  let stack = Params.fig5_stack (Units.um 1.) in
  ( "solve_fv_fig5",
    (* the small sweep starts at resolution 2: resolution 1 sits below
       the asymptotic iteration plateau (15 vs 19-23), so including it
       reads as growth when the finer meshes are actually flat *)
    (if small then [ 2; 3; 4 ] else [ 3; 4; 5; 6 ]),
    fun res rungs ->
      let p = Problem.of_stack ~resolution:res stack in
      let r = Solver.solve ~rungs p in
      (Array.length r.Solver.temps, r.Solver.iterations) )
  ::
  (if small then []
   else
     [
       ( "solve3_fig5",
         [ 1; 2 ],
         fun res rungs ->
           let p = Problem3.of_stack ~resolution:res stack in
           let r = Solver3.solve ~rungs p in
           (Array.length r.Solver3.temps, r.Solver3.iterations) );
     ])

let json_of_multigrid_results results =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "{\n";
  Buffer.add_string buf "  \"bench\": \"multigrid\",\n";
  Buffer.add_string buf
    (Printf.sprintf "  \"growth_limit\": %.2f,\n" multigrid_growth_limit);
  Buffer.add_string buf "  \"artefacts\": [\n";
  List.iteri
    (fun i r ->
      Buffer.add_string buf
        (Printf.sprintf "    {\n      \"name\": \"%s\",\n      \"runs\": [\n" r.m_artefact);
      List.iteri
        (fun j (resolution, { cells; by_rung }) ->
          let rungs_json =
            String.concat ", "
              (List.map
                 (fun (pname, (iters, wall_s, phases)) ->
                   let phases_json =
                     String.concat ", "
                       (List.map
                          (fun (name, count, sum_s) ->
                            Printf.sprintf
                              "{ \"name\": \"%s\", \"count\": %d, \"sum_s\": %.6f }" name
                              count sum_s)
                          phases)
                   in
                   Printf.sprintf
                     "{ \"name\": \"%s\", \"iterations\": %d, \"wall_s\": %.6f, \
                      \"phases\": [%s] }"
                     pname iters wall_s phases_json)
                 by_rung)
          in
          Buffer.add_string buf
            (Printf.sprintf
               "        { \"resolution\": %d, \"cells\": %d, \"preconds\": [%s] }%s\n"
               resolution cells rungs_json
               (if j = List.length r.points - 1 then "" else ",")))
        r.points;
      Buffer.add_string buf "      ]\n";
      Buffer.add_string buf
        (Printf.sprintf "    }%s\n" (if i = List.length results - 1 then "" else ",")))
    results;
  Buffer.add_string buf "  ]\n}\n";
  Buffer.contents buf

(* sum the seconds of one mg phase out of a harvested span breakdown *)
let phase_sum phases name =
  List.fold_left (fun acc (n, _, s) -> if n = name then acc +. s else acc) 0. phases

let run_multigrid () =
  let small = precond_small () in
  E.Report.heading ppf
    (if small then "Multigrid mesh independence (small CI sweep)"
     else "Multigrid mesh independence (iterations vs resolution)");
  ignore (E.Reference.block_coefficients ());
  let metrics_were_on = Ttsv_obs.Flags.metrics_on () in
  Ttsv_obs.Config.enable_metrics ();
  let results =
    List.map
      (fun (artefact, resolutions, f) ->
        Format.fprintf ppf "@.%s:@." artefact;
        let points =
          List.map
            (fun res ->
              let ncells = ref 0 in
              let by_rung =
                List.map
                  (fun (pname, rungs) ->
                    Obs_metrics.reset ();
                    let (c, iters), wall_s = time (fun () -> f res rungs) in
                    let phases = phases_of_snapshot (Obs_metrics.snapshot ()) in
                    ncells := c;
                    (pname, (iters, wall_s, phases)))
                  multigrid_preconds
              in
              let cells = !ncells in
              Format.fprintf ppf "  resolution=%d  cells=%-8d %s@." res cells
                (String.concat "  "
                   (List.map
                      (fun (pname, (iters, wall_s, _)) ->
                        Printf.sprintf "%s %4d iters %7.3f s" pname iters wall_s)
                      by_rung));
              (match List.assoc_opt "mg" by_rung with
              | Some (_, wall_s, phases) when phases <> [] ->
                let setup = phase_sum phases "mg.setup"
                and cycle = phase_sum phases "mg.cycle" in
                Format.fprintf ppf
                  "    mg phases: setup %.3f s  cycle %.3f s  other %.3f s@." setup
                  cycle
                  (Float.max 0. (wall_s -. setup -. cycle))
              | _ -> ());
              (res, { cells; by_rung }))
            resolutions
        in
        (match (points, List.rev points) with
        | ( (_, { by_rung = first; _ }) :: _,
            (_, { by_rung = last; _ }) :: _ )
          when List.length points > 1 -> (
          match (List.assoc_opt "mg" first, List.assoc_opt "mg" last) with
          | Some (i0, _, _), Some (i1, _, _) when i0 > 0 ->
            Format.fprintf ppf "  mg growth coarsest -> finest: %d -> %d (%.2fx)@." i0 i1
              (float_of_int i1 /. float_of_int i0)
          | _ -> ())
        | _ -> ());
        { m_artefact = artefact; points })
      (multigrid_cases ~small ())
  in
  if not metrics_were_on then Ttsv_obs.Config.disable_metrics ();
  let oc = open_out multigrid_json_path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (json_of_multigrid_results results));
  Format.fprintf ppf "@.wrote %s@." multigrid_json_path

(* ----------------------------------------------------------------- service *)

(* Batch engine throughput on a repeated-geometry workload: requests
   cycling 5 radius variants, handled by a FRESH engine per
   [Engine.handle_batch] call, at batch sizes 1/10/100 (and 1000 when
   not small).  Batch 1 pays the cold cost — assembly, preconditioner
   setup, zero-start solve — on every single request; larger batches
   amortise both cache levels across the repeats, which is the
   >= 3x batch-100-over-batch-1 throughput floor [obs_check service]
   gates on.  Hit rates are harvested from the [service.cache.*]
   counters in the metrics registry, not from the engine, so the number
   gated in CI flows through the same pipe the serve trace exposes.
   Sequential (no pool), so iteration totals are deterministic and
   [obs_check regress] can hold them to an exact band.  Writes
   BENCH_service.json. *)
module Service_engine = Ttsv_service.Engine
module Service_protocol = Ttsv_service.Protocol

let service_json_path = "BENCH_service.json"

type service_run = {
  s_batch : int;
  s_requests : int;
  s_wall : float;
  s_throughput : float;
  s_hit_rate : float;
  s_iterations : int;
}

(* n solve requests cycling 5 radius variants — any window of >= 10
   consecutive requests repeats every geometry in it *)
let service_requests ~resolution n =
  Array.init n (fun i ->
      let geometry =
        { Service_protocol.default_geometry with
          radius_um = float_of_int (3 + (i mod 5));
        }
      in
      {
        Service_protocol.id = Printf.sprintf "q%d" i;
        kind =
          Service_protocol.Solve
            { geometry; resolution; tol = 1e-10; deadline_s = None };
      })

(* pooled hit rate of the service.cache.* counters in a registry
   snapshot — the same numbers [obs_check hitrate] reads off a trace *)
let service_registry_hit_rate snap =
  let prefixed name =
    String.length name > 14 && String.sub name 0 14 = "service.cache."
  in
  let ends_with suffix s =
    let ls = String.length suffix and l = String.length s in
    l >= ls && String.sub s (l - ls) ls = suffix
  in
  let hits = ref 0 and misses = ref 0 in
  List.iter
    (fun (name, sample) ->
      match sample with
      | Obs_metrics.C n when prefixed name ->
        if ends_with ".hits" name then hits := !hits + n
        else if ends_with ".misses" name then misses := !misses + n
      | _ -> ())
    snap;
  let total = !hits + !misses in
  if total = 0 then 0. else float_of_int !hits /. float_of_int total

let json_of_service_results runs =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "{\n";
  Buffer.add_string buf "  \"bench\": \"service\",\n";
  Buffer.add_string buf "  \"artefacts\": [\n";
  Buffer.add_string buf "    {\n      \"name\": \"serve_fv_repeated\",\n      \"runs\": [\n";
  List.iteri
    (fun i r ->
      Buffer.add_string buf
        (Printf.sprintf
           "        { \"name\": \"batch%d\", \"batch\": %d, \"requests\": %d, \
            \"wall_s\": %.6f, \"throughput_rps\": %.3f, \"hit_rate\": %.4f, \
            \"iterations\": %d }%s\n"
           r.s_batch r.s_batch r.s_requests r.s_wall r.s_throughput r.s_hit_rate
           r.s_iterations
           (if i = List.length runs - 1 then "" else ",")))
    runs;
  Buffer.add_string buf "      ]\n    }\n  ]\n}\n";
  Buffer.contents buf

let run_service () =
  let small = precond_small () in
  E.Report.heading ppf
    (if small then "Service batch engine (small CI workload)"
     else "Service batch engine (throughput vs batch size)");
  ignore (E.Reference.block_coefficients ());
  let metrics_were_on = Ttsv_obs.Flags.metrics_on () in
  Ttsv_obs.Config.enable_metrics ();
  let resolution = if small then 1 else 2 in
  let batches = if small then [ 1; 10; 100 ] else [ 1; 10; 100; 1000 ] in
  let runs =
    List.map
      (fun batch ->
        let n = max batch 100 in
        let reqs = service_requests ~resolution n in
        Obs_metrics.reset ();
        let iterations = ref 0 in
        let (), wall_s =
          time (fun () ->
              let i = ref 0 in
              while !i < n do
                let group = Array.sub reqs !i (min batch (n - !i)) in
                (* a fresh engine per group: batch 1 never reuses
                   anything, batch 100 amortises 5 cold solves over 95
                   cache hits — the workload the gate is about *)
                let engine = Service_engine.create () in
                let responses = Service_engine.handle_batch engine group in
                Array.iter
                  (fun (r : Service_protocol.response) ->
                    match r.Service_protocol.result with
                    | Ok (Service_protocol.Solved s) ->
                      iterations := !iterations + s.Service_protocol.iterations
                    | Ok _ -> ()
                    | Error e ->
                      failwith
                        ("service bench: unexpected error response: "
                        ^ e.Service_protocol.message))
                  responses;
                i := !i + batch
              done)
        in
        let hit_rate = service_registry_hit_rate (Obs_metrics.snapshot ()) in
        let throughput = float_of_int n /. wall_s in
        Format.fprintf ppf
          "  batch=%-5d %4d requests  %8.3f s  %8.1f solves/s  hit rate %.2f  \
           (%d iterations)@."
          batch n wall_s throughput hit_rate !iterations;
        {
          s_batch = batch;
          s_requests = n;
          s_wall = wall_s;
          s_throughput = throughput;
          s_hit_rate = hit_rate;
          s_iterations = !iterations;
        })
      batches
  in
  (match runs with
  | { s_throughput = base; _ } :: _ ->
    List.iter
      (fun r ->
        if r.s_batch >= 100 then
          Format.fprintf ppf "  batch %d vs batch 1: %.1fx throughput@." r.s_batch
            (r.s_throughput /. base))
      runs
  | [] -> ());
  if not metrics_were_on then Ttsv_obs.Config.disable_metrics ();
  let oc = open_out service_json_path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (json_of_service_results runs));
  Format.fprintf ppf "@.wrote %s@." service_json_path

let artefacts : (string * (unit -> unit)) list =
  [
    ("fig4", fun () -> E.Fig4.print ppf ());
    ("fig5", fun () -> E.Fig5.print ppf ());
    ("fig6", fun () -> E.Fig6.print ppf ());
    ("fig7", fun () -> E.Fig7.print ppf ());
    ("table1", fun () -> E.Table1.print ppf ());
    ("case", fun () -> E.Case_study.print ppf ());
    ("ablation", fun () -> E.Ablation.print ppf ());
    ("convergence", fun () -> E.Convergence.print ppf ());
    ("shape", fun () -> E.Shape.print ppf ());
    ("sensitivity", fun () -> E.Sensitivity.print ppf ());
    ("nplanes", fun () -> E.Nplanes.print ppf ());
    ("variation", fun () -> E.Variation.print ppf ());
    ("nonlinear", fun () -> E.Nonlinear_study.print ppf ());
    ("fillers", fun () -> E.Fillers.print ppf ());
    ("micro", run_micro);
    ("parallel", run_parallel);
    ("precond", run_precond);
    ("multigrid", run_multigrid);
    ("service", run_service);
  ]

let () =
  let requested =
    match Array.to_list Sys.argv with
    | _ :: (_ :: _ as names) -> names
    | _ :: [] | [] -> List.map fst artefacts
  in
  List.iter
    (fun name ->
      match List.assoc_opt name artefacts with
      | Some run ->
        Format.fprintf ppf "@.=== %s ===@." name;
        run ()
      | None ->
        Format.eprintf "unknown artefact %S; known: %s@." name
          (String.concat " " (List.map fst artefacts));
        exit 2)
    requested
