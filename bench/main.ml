(* Benchmark harness: Bechamel microbenchmarks of the reproduced
   artefacts' solver kernels, pool scaling, the preconditioner ladder,
   multigrid mesh independence and the batch service engine.  The
   paper's tables and figures themselves are regenerated by
   `ttsv_cli figures`.

   Usage:
     dune exec bench/main.exe             # every bench below
     dune exec bench/main.exe -- micro    # microbenchmarks only
     dune exec bench/main.exe -- parallel # pool scaling, writes BENCH_parallel.json
     dune exec bench/main.exe -- precond  # preconditioner ladder, BENCH_precond.json
     dune exec bench/main.exe -- multigrid # mesh-independence sweep, BENCH_multigrid.json
     dune exec bench/main.exe -- service  # batch engine throughput, BENCH_service.json

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

(* ----------------------------------------------------------------- harness *)

(* The four JSON benches below measure every run through [measure] and
   write their file through [write_bench].  Speedups are measured on
   whatever cores the host actually has; the determinism tests, not these
   benches, guarantee the pooled results themselves. *)
module Json = Ttsv_obs.Json
module Pool = Ttsv_parallel.Pool
module Problem3 = Ttsv_fem.Problem3
module Solver3 = Ttsv_fem.Solver3
module Obs_metrics = Ttsv_obs.Metrics
module Diagnostics = Ttsv_robust.Diagnostics

(* TTSV_BENCH_SMALL shrinks the precond, multigrid and service benches:
   seconds instead of minutes, for the CI perf-smoke job *)
let bench_small () =
  match Sys.getenv_opt "TTSV_BENCH_SMALL" with Some "" | None -> false | Some _ -> true

(* metrics on for the whole bench, so every measured run also yields its
   span.* phase breakdown *)
let with_metrics f =
  let were_on = Ttsv_obs.Flags.metrics_on () in
  Ttsv_obs.Config.enable_metrics ();
  Fun.protect ~finally:(fun () -> if not were_on then Ttsv_obs.Config.disable_metrics ()) f

(* One measured run.  [phases] is its span breakdown from the metrics
   registry: (span name, completions, summed seconds) for each "span.*"
   histogram that completed during the run.  [spread] is the (fastest,
   slowest) wall time when the run stands for the median of repeats. *)
type 'a run = {
  domains : int;
  wall_s : float;
  spread : (float * float) option;
  value : 'a;
  phases : (string * int * float) list;
}

(* times [f] on a fresh pool of [domains] (no pool when absent).  The
   registry is reset first, so the phases belong to this run alone; the
   pool's start and shutdown are not timed. *)
let measure ?domains f =
  Obs_metrics.reset ();
  let pool = Option.map (fun domains -> Pool.create ~domains ()) domains in
  let value, wall_s =
    Fun.protect
      ~finally:(fun () -> Option.iter Pool.shutdown pool)
      (fun () ->
        let t0 = Unix.gettimeofday () in
        let value = f pool in
        (value, Unix.gettimeofday () -. t0))
  in
  let phases =
    List.filter_map
      (fun (name, sample) ->
        match sample with
        | Obs_metrics.H { count; sum; _ }
          when count > 0 && String.starts_with ~prefix:"span." name ->
          Some (String.sub name 5 (String.length name - 5), count, sum)
        | _ -> None)
      (Obs_metrics.snapshot ())
  in
  let domains = match pool with Some p -> Pool.domains p | None -> 1 in
  { domains; wall_s; spread = None; value; phases }

let phases_json phases =
  Json.List
    (List.map
       (fun (name, count, sum_s) ->
         Json.Obj
           [ ("name", Json.String name); ("count", Json.Int count); ("sum_s", Json.Float sum_s) ])
       phases)

(* the run rows of BENCH_parallel.json and BENCH_precond.json, valued by
   their iteration count; each speedup is against the first run *)
let runs_json runs =
  let base = match runs with { wall_s; _ } :: _ -> wall_s | [] -> Float.nan in
  Json.List
    (List.map
       (fun { domains; wall_s; spread; value = iterations; phases } ->
         let spread =
           match spread with
           | Some (lo, hi) -> [ ("wall_s_min", Json.Float lo); ("wall_s_max", Json.Float hi) ]
           | None -> []
         in
         Json.Obj
           ([ ("domains", Json.Int domains); ("wall_s", Json.Float wall_s) ]
           @ spread
           @ [
               ("speedup", Json.Float (base /. wall_s));
               ("iterations", Json.Int iterations);
               ("phases", phases_json phases);
             ]))
       runs)

(* writes BENCH_<name>.json to the working directory *)
let write_bench name fields =
  let path = Printf.sprintf "BENCH_%s.json" name in
  Out_channel.with_open_text path (fun oc ->
      output_string oc
        (Json.to_string_pretty (Json.Obj (("bench", Json.String name) :: fields))));
  Format.fprintf ppf "@.wrote %s@." path

(* ---------------------------------------------------------------- parallel *)

(* Pool scaling: the median wall time of the pooled artefacts at 1/2/4/8
   domains over [parallel_repeats] runs each, printed and written to
   BENCH_parallel.json. *)

(* a phase cannot burn more than its run's core capacity (10% slack
   absorbs clock skew).  Phase sums are measured under scheduling noise,
   so an overrun is a warning to look at, not a failure. *)
let warn_phase_overruns artefact { domains; wall_s; phases; _ } =
  let capacity = wall_s *. float_of_int domains in
  List.iter
    (fun (name, _, sum_s) ->
      if sum_s > (capacity *. 1.10) +. 1e-6 then
        Format.eprintf
          "warning: %s domains=%d: phase %s sums to %.3fs, above the %.3fs capacity of the \
           %.3fs run@."
          artefact domains name sum_s capacity wall_s)
    phases

let bench_domains = [ 1; 2; 4; 8 ]

(* single runs on 2 vCPUs spread wider than the differences between
   domain counts (the 3-D res-1 solve at 2 domains read 0.99-1.15x over
   five runs), so each row is the median of this many *)
let parallel_repeats = 5

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
        ignore (E.Figures.run ~resolution:1 ?pool E.Figures.fig5);
        0 );
    ( "variation_mc",
      fun pool ->
        ignore (E.Variation.run ?pool ());
        0 );
  ]

let run_parallel () =
  E.Report.heading ppf "Parallel scaling (domain pool wall time per artefact)";
  (* force the memoized FV calibration outside every timed region *)
  ignore (E.Reference.block_coefficients ());
  let artefacts =
    with_metrics @@ fun () ->
    List.map
      (fun (artefact, f) ->
        Format.fprintf ppf "@.%s:@." artefact;
        (* the median run stands for the row, phases included *)
        let median domains =
          let sorted =
            List.sort
              (fun a b -> Float.compare a.wall_s b.wall_s)
              (List.init parallel_repeats (fun _ -> measure ~domains f))
          in
          let fastest = List.hd sorted and slowest = List.nth sorted (parallel_repeats - 1) in
          { (List.nth sorted (parallel_repeats / 2)) with
            spread = Some (fastest.wall_s, slowest.wall_s) }
        in
        let runs = List.map median bench_domains in
        let base = (List.hd runs).wall_s in
        List.iter
          (fun ({ domains; wall_s; spread; value = iterations; _ } as run) ->
            let lo, hi = Option.value spread ~default:(wall_s, wall_s) in
            Format.fprintf ppf "  domains=%d  %8.3f s (%.3f-%.3f)  speedup %5.2fx%s@." domains
              wall_s lo hi (base /. wall_s)
              (if iterations > 0 then Printf.sprintf "  (%d solver iterations)" iterations
               else "");
            warn_phase_overruns artefact run)
          runs;
        Json.Obj [ ("name", Json.String artefact); ("runs", runs_json runs) ])
      (parallel_artefacts ())
  in
  write_bench "parallel"
    [
      ("host_domains", Json.Int (Domain.recommended_domain_count ()));
      ("artefacts", Json.List artefacts);
    ]

(* ----------------------------------------------------------------- precond *)

(* Preconditioner shoot-out: the same artefacts solved with the ladder
   pinned to exactly one preconditioner, so the per-run iteration counts
   (and wall times) are attributable to that preconditioner alone.
   Writes BENCH_precond.json with the same run rows as
   BENCH_parallel.json, one level deeper (artefact -> preconditioner ->
   runs). *)
let precond_rungs =
  [
    ("ic0", [ Diagnostics.Cg_ic0 ]);
    ("jacobi", [ Diagnostics.Cg ]);
  ]

(* small: the resolution-1 2-D grid at 1/2 domains *)
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

let run_precond () =
  let small = bench_small () in
  E.Report.heading ppf
    (if small then "Preconditioner comparison (small CI grid)"
     else "Preconditioner comparison (iterations and wall time per rung)");
  ignore (E.Reference.block_coefficients ());
  let domain_counts = if small then [ 1; 2 ] else [ 1; 2; 4 ] in
  let artefacts =
    with_metrics @@ fun () ->
    List.map
      (fun (artefact, f) ->
        Format.fprintf ppf "@.%s:@." artefact;
        let by_precond =
          List.map
            (fun (pname, rungs) ->
              let runs =
                List.map
                  (fun domains -> measure ~domains (fun pool -> f pool rungs))
                  domain_counts
              in
              let base = (List.hd runs).wall_s in
              List.iter
                (fun { domains; wall_s; value = iterations; _ } ->
                  Format.fprintf ppf
                    "  %-7s domains=%d  %8.3f s  speedup %5.2fx  (%d iterations)@." pname
                    domains wall_s (base /. wall_s) iterations)
                runs;
              (pname, runs))
            precond_rungs
        in
        (* the headline number: how far IC(0) cuts the Jacobi iteration count *)
        (match (List.assoc_opt "ic0" by_precond, List.assoc_opt "jacobi" by_precond) with
        | Some ({ value = ic0; _ } :: _), Some ({ value = jac; _ } :: _) when ic0 > 0 ->
          Format.fprintf ppf "  ic0 vs jacobi: %d vs %d iterations (%.1fx fewer)@." ic0 jac
            (float_of_int jac /. float_of_int ic0)
        | _ -> ());
        Json.Obj
          [
            ("name", Json.String artefact);
            ( "preconds",
              Json.List
                (List.map
                   (fun (pname, runs) ->
                     Json.Obj [ ("name", Json.String pname); ("runs", runs_json runs) ])
                   by_precond) );
          ])
      (precond_artefacts ~small ())
  in
  write_bench "precond"
    [
      ("host_domains", Json.Int (Domain.recommended_domain_count ()));
      ("artefacts", Json.List artefacts);
    ]

(* --------------------------------------------------------------- multigrid *)

(* Mesh-independence evidence for the multigrid rung: CG iteration
   counts under the mg and ic0 preconditioners across a resolution
   sweep of the 2-D unit cell and the 3-D chip stack.  An incomplete
   factorisation's iteration count grows with resolution; the V-cycle's
   must stay near-constant.  The golden band test bounds that growth
   over resolutions 3-6, and [obs_check regress] holds the small
   sweep's iteration counts to the committed baseline; wall times are
   informational.  Each run's phases separate mg's one-time hierarchy
   setup (mg.setup) from the per-iteration cycling (mg.cycle, with
   mg.smooth nested inside).  Writes BENCH_multigrid.json. *)
let multigrid_preconds =
  [ ("mg", [ Diagnostics.Cg_mg ]); ("ic0", [ Diagnostics.Cg_ic0 ]) ]

(* each case maps a resolution and rungs to (cells, iterations) *)
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

(* sum the seconds of one mg phase out of a harvested span breakdown *)
let phase_sum phases name =
  List.fold_left (fun acc (n, _, s) -> if n = name then acc +. s else acc) 0. phases

let run_multigrid () =
  let small = bench_small () in
  E.Report.heading ppf
    (if small then "Multigrid mesh independence (small CI sweep)"
     else "Multigrid mesh independence (iterations vs resolution)");
  ignore (E.Reference.block_coefficients ());
  let artefacts =
    with_metrics @@ fun () ->
    List.map
      (fun (artefact, resolutions, f) ->
        Format.fprintf ppf "@.%s:@." artefact;
        (* per resolution: its JSON row and the mg iteration count *)
        let rows =
          List.map
            (fun res ->
              let by_rung =
                List.map
                  (fun (pname, rungs) -> (pname, measure (fun _ -> f res rungs)))
                  multigrid_preconds
              in
              let cells = fst (snd (List.hd by_rung)).value in
              Format.fprintf ppf "  resolution=%d  cells=%-8d %s@." res cells
                (String.concat "  "
                   (List.map
                      (fun (pname, { wall_s; value = _, iters; _ }) ->
                        Printf.sprintf "%s %4d iters %7.3f s" pname iters wall_s)
                      by_rung));
              let mg = List.assoc "mg" by_rung in
              if mg.phases <> [] then begin
                let setup = phase_sum mg.phases "mg.setup"
                and cycle = phase_sum mg.phases "mg.cycle" in
                Format.fprintf ppf "    mg phases: setup %.3f s  cycle %.3f s  other %.3f s@."
                  setup cycle
                  (Float.max 0. (mg.wall_s -. setup -. cycle))
              end;
              ( Json.Obj
                  [
                    ("resolution", Json.Int res);
                    ("cells", Json.Int cells);
                    ( "preconds",
                      Json.List
                        (List.map
                           (fun (pname, { wall_s; value = _, iters; phases; _ }) ->
                             Json.Obj
                               [
                                 ("name", Json.String pname);
                                 ("iterations", Json.Int iters);
                                 ("wall_s", Json.Float wall_s);
                                 ("phases", phases_json phases);
                               ])
                           by_rung) );
                  ],
                snd mg.value ))
            resolutions
        in
        (match List.map snd rows with
        | i0 :: _ :: _ as mg when i0 > 0 ->
          let i1 = List.nth mg (List.length mg - 1) in
          Format.fprintf ppf "  mg growth coarsest -> finest: %d -> %d (%.2fx)@." i0 i1
            (float_of_int i1 /. float_of_int i0)
        | _ -> ());
        Json.Obj [ ("name", Json.String artefact); ("runs", Json.List (List.map fst rows)) ])
      (multigrid_cases ~small ())
  in
  write_bench "multigrid" [ ("artefacts", Json.List artefacts) ]

(* ----------------------------------------------------------------- service *)

(* Batch engine throughput on a repeated-geometry workload: requests
   cycling 5 radius variants, handled by a FRESH engine per
   [Engine.handle_batch] call, at batch sizes 1/10/100 (and 1000 when
   not small).  Batch 1 pays the cold cost — assembly, preconditioner
   setup, zero-start solve — on every single request; larger batches
   amortise both cache levels across the repeats.  That is the floor
   this bench enforces after writing BENCH_service.json: every run of
   >= 100 requests must clear a 0.5 cache hit rate and 3x the batch-1
   throughput, or the bench exits 1 naming the run.  Hit rates are
   deterministic; the throughput ratio compares two runs of one
   process, so runner speed largely cancels.  Hit rates are harvested
   from the [service.cache.*] counters in the metrics registry, not
   from the engine, so the gated number flows through the same pipe the
   serve trace exposes.  Sequential (no pool), so iteration totals are
   deterministic and [obs_check regress] can hold them to an exact
   band. *)
module Service_engine = Ttsv_service.Engine
module Service_protocol = Ttsv_service.Protocol

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
  let hits = ref 0 and misses = ref 0 in
  List.iter
    (fun (name, sample) ->
      match sample with
      | Obs_metrics.C n when String.starts_with ~prefix:"service.cache." name ->
        if String.ends_with ~suffix:".hits" name then hits := !hits + n
        else if String.ends_with ~suffix:".misses" name then misses := !misses + n
      | _ -> ())
    snap;
  let total = !hits + !misses in
  if total = 0 then 0. else float_of_int !hits /. float_of_int total

let run_service () =
  let small = bench_small () in
  E.Report.heading ppf
    (if small then "Service batch engine (small CI workload)"
     else "Service batch engine (throughput vs batch size)");
  ignore (E.Reference.block_coefficients ());
  let resolution = if small then 1 else 2 in
  let batches = if small then [ 1; 10; 100 ] else [ 1; 10; 100; 1000 ] in
  (* per batch size: (batch, throughput, hit rate) and its JSON row *)
  let runs =
    with_metrics @@ fun () ->
    List.map
      (fun batch ->
        let n = max batch 100 in
        let reqs = service_requests ~resolution n in
        let { wall_s; value = iterations; _ } =
          measure (fun _ ->
              let iterations = ref 0 and i = ref 0 in
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
              done;
              !iterations)
        in
        let hit_rate = service_registry_hit_rate (Obs_metrics.snapshot ()) in
        let throughput = float_of_int n /. wall_s in
        Format.fprintf ppf
          "  batch=%-5d %4d requests  %8.3f s  %8.1f solves/s  hit rate %.2f  \
           (%d iterations)@."
          batch n wall_s throughput hit_rate iterations;
        ( (batch, throughput, hit_rate),
          Json.Obj
            [
              ("name", Json.String (Printf.sprintf "batch%d" batch));
              ("batch", Json.Int batch);
              ("requests", Json.Int n);
              ("wall_s", Json.Float wall_s);
              ("throughput_rps", Json.Float throughput);
              ("hit_rate", Json.Float hit_rate);
              ("iterations", Json.Int iterations);
            ] ))
      batches
  in
  let base = match runs with ((_, base, _), _) :: _ -> base | [] -> Float.nan in
  let missed =
    List.filter_map
      (fun ((batch, throughput, hit_rate), _) ->
        let speedup = throughput /. base in
        if batch >= 100 then
          Format.fprintf ppf "  batch %d vs batch 1: %.1fx throughput@." batch speedup;
        if batch >= 100 && not (hit_rate > 0.5 && speedup >= 3.) then
          Some (batch, throughput, hit_rate)
        else None)
      runs
  in
  write_bench "service"
    [
      ( "artefacts",
        Json.List
          [
            Json.Obj
              [
                ("name", Json.String "serve_fv_repeated");
                ("runs", Json.List (List.map snd runs));
              ];
          ] );
    ];
  if missed <> [] then begin
    List.iter
      (fun (batch, throughput, hit_rate) ->
        Format.eprintf
          "service bench: batch%d misses the floor: hit rate %.3f (> 0.50 needed), %.1f \
           solves/s = %.2fx batch 1 (>= 3x needed)@."
          batch hit_rate throughput (throughput /. base))
      missed;
    exit 1
  end

let benches : (string * (unit -> unit)) list =
  [
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
    | _ :: [] | [] -> List.map fst benches
  in
  List.iter
    (fun name ->
      match List.assoc_opt name benches with
      | Some run ->
        Format.fprintf ppf "@.=== %s ===@." name;
        run ()
      | None ->
        Format.eprintf "unknown bench %S; known: %s (tables and figures: ttsv_cli figures)@."
          name
          (String.concat " " (List.map fst benches));
        exit 2)
    requested
