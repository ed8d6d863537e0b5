(* ttsv — command-line front end for the TTSV thermal-model library.

   Subcommands:
     solve       analyze one unit cell with a chosen model
     sweep       sweep one geometric parameter and print the curve
     figures     regenerate the paper's figures/tables (same as bench)
     calibrate   fit Model A's k1/k2 against the finite-volume reference
     case-study  run the section IV-E DRAM-uP analysis
     transient   step response and thermal time constant (extension)
     chip        full-chip compact model with a hotspot (extension)
     serve       batch request/response engine over stdin/stdout (JSONL)
     export      write the figures/tables as CSV files
     materials   list the material library *)

module Units = Ttsv_physics.Units
module Materials = Ttsv_physics.Materials
module Material = Ttsv_physics.Material
module Stack = Ttsv_geometry.Stack
module Params = Ttsv_core.Params
module Coefficients = Ttsv_core.Coefficients
module Model_a = Ttsv_core.Model_a
module Model_b = Ttsv_core.Model_b
module Model_1d = Ttsv_core.Model_1d
module Transient = Ttsv_core.Transient
module Calibrate = Ttsv_core.Calibrate
module Problem = Ttsv_fem.Problem
module Solver = Ttsv_fem.Solver
module Validate = Ttsv_robust.Validate
module Diagnostics = Ttsv_robust.Diagnostics
module Robust = Ttsv_robust.Robust
module Budget = Ttsv_parallel.Budget
module Json = Ttsv_obs.Json
module E = Ttsv_experiments
open Cmdliner

(* ---------------------------------------------------------------- geometry *)

let um_arg ~doc ~default name =
  Arg.(value & opt float default & info [ name ] ~docv:"UM" ~doc:(doc ^ " [µm]"))

let radius_t = um_arg ~doc:"TTSV radius" ~default:5. "radius"
let liner_t = um_arg ~doc:"liner thickness" ~default:1. "liner"
let ild_t = um_arg ~doc:"ILD/BEOL thickness" ~default:4. "ild"
let bond_t = um_arg ~doc:"bonding layer thickness" ~default:1. "bond"
let tsi_t = um_arg ~doc:"substrate thickness of the upper planes" ~default:45. "tsi"
let tsi1_t = um_arg ~doc:"substrate thickness of the first plane" ~default:500. "tsi1"
let lext_t = um_arg ~doc:"TSV extension into the first substrate" ~default:1. "lext"

(* every geometry flag is untrusted input: run it through the accumulating
   validator so the user sees ALL the problems at once, not just the first *)
let stack_t =
  let build r t_liner t_ild t_bond t_si t_si1 l_ext =
    Params.block_checked ~r:(Units.um r) ~t_liner:(Units.um t_liner)
      ~t_ild:(Units.um t_ild) ~t_bond:(Units.um t_bond) ~t_si23:(Units.um t_si)
      ~t_si1:(Units.um t_si1) ~l_ext:(Units.um l_ext) ()
    |> Result.map_error (fun violations -> `Msg (Validate.to_string violations))
  in
  Term.term_result
    Term.(const build $ radius_t $ liner_t $ ild_t $ bond_t $ tsi_t $ tsi1_t $ lext_t)

let k1_t = Arg.(value & opt float 1.3 & info [ "k1" ] ~doc:"Model A vertical fitting coefficient")
let k2_t = Arg.(value & opt float 0.55 & info [ "k2" ] ~doc:"Model A lateral fitting coefficient")

let coeffs_t =
  let build k1 k2 = Coefficients.make ~k1 ~k2 in
  Term.(const build $ k1_t $ k2_t)

let segments_t =
  Arg.(value & opt int 100 & info [ "segments"; "n" ] ~doc:"Model B segments per upper plane")

let resolution_t =
  Arg.(value & opt int 2 & info [ "resolution" ] ~doc:"finite-volume mesh resolution factor")

module Pool = Ttsv_parallel.Pool

let domains_t =
  Arg.(
    value
    & opt (some int) None
    & info [ "domains" ] ~docv:"N"
        ~doc:
          "worker domains for pooled execution. Defaults to the TTSV_DOMAINS environment \
           variable when set, otherwise to the recommended domain count capped at 8; 1 \
           disables parallelism.")

(* every pooled command funnels through here so the pool is always shut
   down, whatever the command does *)
let with_pool domains f = Pool.with_pool ?domains f

let deadline_t =
  Arg.(
    value
    & opt (some float) None
    & info [ "deadline" ] ~docv:"SECONDS"
        ~doc:
          "wall-clock budget for the FV reference solve; on expiry the solve stops \
           cooperatively and reports a typed deadline-exceeded diagnostic carrying the best \
           iterate reached, instead of running to convergence")

(* the deadline is anchored the moment the budget is built, so build it
   as late as possible — right before the solve *)
let budget_of_deadline = Option.map (fun d -> Budget.make ~deadline_s:d ())

let checkpoint_t =
  Arg.(
    value
    & opt (some string) None
    & info [ "checkpoint" ] ~docv:"FILE"
        ~doc:
          "record every completed sweep point to $(docv) (JSONL, flushed per point) so an \
           interrupted run can be restarted with $(b,--resume)")

let resume_t =
  Arg.(
    value & flag
    & info [ "resume" ]
        ~doc:
          "load the points already recorded in $(b,--checkpoint) and recompute only the \
           missing ones; the resumed output is byte-identical to an uninterrupted run")

(* [--checkpoint]/[--resume] plumbing shared by sweep and figures: no
   file means no checkpointing, [--resume] without a file is almost
   certainly a mistake, so say so *)
let with_checkpoint checkpoint resume f =
  match checkpoint with
  | None ->
    if resume then Format.eprintf "warning: --resume has no effect without --checkpoint@.";
    f None
  | Some path -> E.Checkpoint.with_file ~resume path (fun cp -> f (Some cp))

let model_t =
  let models = [ ("a", `A); ("b", `B); ("1d", `One_d); ("fv", `Fv); ("all", `All) ] in
  Arg.(value & opt (enum models) `All & info [ "model" ] ~doc:"model to run: a, b, 1d, fv or all")

(* ------------------------------------------------------------ observability *)

let obs_trace_t =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:
          "write a ttsv.trace.v2 JSONL trace of spans, metric, and solver convergence \
           (conv) events to $(docv) (equivalent to setting TTSV_TRACE=$(docv)); the \
           summary snapshot is appended when the trace closes, and the file feeds \
           obs_check validate and obs_report")

let obs_metrics_t =
  Arg.(
    value & flag
    & info [ "metrics" ]
        ~doc:
          "collect runtime metrics and print the summary table on stderr at exit (equivalent \
           to TTSV_METRICS=1)")

(* evaluated before the command body runs, so every span of the run is
   captured; the Config at_exit hook closes the trace and prints the
   summary on the way out *)
let obs_t =
  let setup trace metrics =
    (match trace with None -> () | Some path -> Ttsv_obs.Config.enable_trace path);
    if metrics then Ttsv_obs.Config.enable_metrics ()
  in
  Term.(const setup $ obs_trace_t $ obs_metrics_t)

(* ------------------------------------------------------------------- solve *)

let print_rise label dt = Format.printf "%-14s max dT = %6.3f K@." label dt

let run_model ~solver_report ~pool ~rungs ~deadline stack coeffs segments resolution = function
  | `A -> print_rise "Model A" (Model_a.max_rise (Model_a.solve ~coeffs stack))
  | `B ->
    print_rise
      (Printf.sprintf "Model B(%d)" segments)
      (Model_b.max_rise (Model_b.solve_n stack segments))
  | `One_d -> print_rise "Model 1D" (Model_1d.max_rise (Model_1d.solve stack))
  | `Fv -> (
    let budget = budget_of_deadline deadline in
    match Solver.try_solve ~pool ?rungs ?budget (Problem.of_stack ~resolution stack) with
    | Ok res ->
      print_rise "FV reference" (Solver.max_rise res);
      if solver_report then
        Format.printf "@[<v 2>solver report:@,%a@]@." Diagnostics.pp res.Solver.diagnostics
    | Error failure ->
      Format.printf "@[<v 2>FV reference: no converged solution@,%a@]@." Robust.pp_failure
        failure)

(* pin the FV solve to one preconditioner (the direct fallback stays as
   the backstop so a pinned run still terminates); "auto" keeps the full
   escalation ladder *)
let precond_t =
  let kinds =
    [
      ("auto", None);
      ("mg", Some [ Diagnostics.Cg_mg; Diagnostics.Direct ]);
      ("ic0", Some [ Diagnostics.Cg_ic0; Diagnostics.Direct ]);
      ("jacobi", Some [ Diagnostics.Cg; Diagnostics.Direct ]);
    ]
  in
  Arg.(
    value
    & opt (enum kinds) None
    & info [ "precond" ] ~docv:"KIND"
        ~doc:
          "preconditioner for the FV reference solve: $(b,auto) (the IC(0) -> Jacobi -> \
           direct escalation ladder, the default), or pin $(b,mg), $(b,ic0) or $(b,jacobi); \
           combine with $(b,--solver-report) to see the iteration counts")

let solver_report_t =
  Arg.(
    value & flag
    & info [ "solver-report" ]
        ~doc:
          "print the linear-solver diagnostics of the FV reference: which escalation rungs \
           ran, iteration counts, residuals and wall time")

let ambient_t =
  Arg.(value & opt float 25. & info [ "ambient" ] ~doc:"ambient temperature [°C]")

let r_package_t =
  Arg.(
    value
    & opt (some float) None
    & info [ "r-package" ] ~doc:"sink-to-ambient package resistance [K/W]")

let solve_cmd =
  let run stack coeffs segments resolution model ambient r_package solver_report rungs
      deadline domains () =
    with_pool domains @@ fun pool ->
    let qs = Stack.heat_inputs stack in
    Format.printf "unit cell: %a@." Stack.pp stack;
    Array.iteri (fun i q -> Format.printf "q%d = %.4g W@." (i + 1) q) qs;
    (match model with
    | `All ->
      List.iter
        (run_model ~solver_report ~pool ~rungs ~deadline stack coeffs segments resolution)
        [ `A; `B; `One_d; `Fv ]
    | (`A | `B | `One_d | `Fv) as m ->
      run_model ~solver_report ~pool ~rungs ~deadline stack coeffs segments resolution m);
    let detail = Model_a.solve ~coeffs stack in
    Format.printf "@.Model A nodal rises:@.";
    Format.printf "  T0 (TSV foot) = %6.3f K@." detail.Model_a.t0;
    Array.iteri
      (fun i t -> Format.printf "  plane %d bulk  = %6.3f K@." (i + 1) t)
      detail.Model_a.bulk;
    Array.iteri
      (fun i t -> Format.printf "  plane %d TTSV  = %6.3f K@." (i + 1) t)
      detail.Model_a.tsv;
    Format.printf "  heat down the TTSV at its foot = %.4g W (%.1f%% of total)@."
      detail.Model_a.tsv_heat
      (100. *. detail.Model_a.tsv_heat /. Stack.total_heat stack);
    match r_package with
    | None -> ()
    | Some resistance ->
      let pkg = Ttsv_core.Package.make ~ambient ~resistance () in
      let total_power = Stack.total_heat stack in
      Format.printf "@.with the package (R=%.3g K/W, ambient %.1f C):@." resistance ambient;
      Format.printf "  sink surface   = %.2f C@."
        (Ttsv_core.Package.sink_temperature pkg ~total_power);
      Format.printf "  junction (max) = %.2f C@."
        (Ttsv_core.Package.junction_temperature pkg ~total_power
           ~model_rise:(Model_a.max_rise detail))
  in
  let info = Cmd.info "solve" ~doc:"analyze one unit cell with the chosen model(s)" in
  Cmd.v info
    Term.(
      const run $ stack_t $ coeffs_t $ segments_t $ resolution_t $ model_t $ ambient_t
      $ r_package_t $ solver_report_t $ precond_t $ deadline_t $ domains_t $ obs_t)

(* ------------------------------------------------------------------- sweep *)

let sweep_cmd =
  let param_t =
    let params = [ ("radius", `Radius); ("liner", `Liner); ("tsi", `Tsi) ] in
    Arg.(
      value
      & opt (enum params) `Radius
      & info [ "param" ] ~doc:"swept parameter: radius, liner or tsi")
  in
  let from_t = Arg.(value & opt float 1. & info [ "from" ] ~doc:"sweep start [µm]") in
  let to_t = Arg.(value & opt float 20. & info [ "to" ] ~doc:"sweep end [µm]") in
  let points_t = Arg.(value & opt int 10 & info [ "points" ] ~doc:"number of sweep points") in
  let with_fv_t = Arg.(value & flag & info [ "with-fv" ] ~doc:"include the FV reference") in
  (* one sweep row, checkpoint-encoded: [x; a; b; d] plus the FV value
     when --with-fv is on (arity distinguishes the two shapes) *)
  let encode_row (x, a, b, d, fv) =
    Json.List
      (Json.Float x :: Json.Float a :: Json.Float b :: Json.Float d
      :: (match fv with None -> [] | Some v -> [ Json.Float v ]))
  in
  let decode_row = function
    | Json.List (jx :: ja :: jb :: jd :: rest) -> (
      let f = Json.to_float_opt in
      match (f jx, f ja, f jb, f jd, rest) with
      | Some x, Some a, Some b, Some d, [] -> Some (x, a, b, d, None)
      | Some x, Some a, Some b, Some d, [ jfv ] ->
        Option.map (fun fv -> (x, a, b, d, Some fv)) (f jfv)
      | _ -> None)
    | _ -> None
  in
  let run stack coeffs segments resolution param from_ to_ points with_fv checkpoint resume
      domains () =
    if points < 2 then invalid_arg "sweep: need at least two points";
    with_pool domains @@ fun pool ->
    with_checkpoint checkpoint resume @@ fun checkpoint ->
    let checkpoint =
      Option.map
        (fun cp -> E.Sweep.stage cp ~name:"cli.sweep" ~encode:encode_row ~decode:decode_row)
        checkpoint
    in
    let xs = Ttsv_numerics.Vec.linspace from_ to_ points in
    let rebuild x =
      let v = Units.um x in
      match param with
      | `Radius -> Stack.with_tsv stack (Ttsv_geometry.Tsv.with_radius stack.Stack.tsv v)
      | `Liner -> Stack.with_tsv stack (Ttsv_geometry.Tsv.with_liner_thickness stack.Stack.tsv v)
      | `Tsi ->
        Stack.map_planes stack (fun i p ->
            if i = 0 then p else Ttsv_geometry.Plane.with_t_substrate p v)
    in
    Format.printf "%12s %12s %12s %12s%s@." "x [um]" "Model A" "Model B" "Model 1D"
      (if with_fv then "          FV" else "");
    (* evaluate the (independent) sweep points over the pool; the rows
       come back in sweep order, so the printout is unchanged *)
    let rows =
      E.Sweep.map_array ~pool ?checkpoint
        (fun x ->
          let s = rebuild x in
          let a = Model_a.max_rise (Model_a.solve ~coeffs s) in
          let b = Model_b.max_rise (Model_b.solve_n s segments) in
          let d = Model_1d.max_rise (Model_1d.solve s) in
          let fv =
            if with_fv then
              Some (Solver.max_rise (Solver.solve (Problem.of_stack ~resolution s)))
            else None
          in
          (x, a, b, d, fv))
        xs
    in
    Array.iter
      (fun (x, a, b, d, fv) ->
        match fv with
        | Some fv -> Format.printf "%12.3f %12.3f %12.3f %12.3f %12.3f@." x a b d fv
        | None -> Format.printf "%12.3f %12.3f %12.3f %12.3f@." x a b d)
      rows
  in
  let info = Cmd.info "sweep" ~doc:"sweep a geometric parameter and print the dT curve" in
  Cmd.v info
    Term.(
      const run $ stack_t $ coeffs_t $ segments_t $ resolution_t $ param_t $ from_t $ to_t
      $ points_t $ with_fv_t $ checkpoint_t $ resume_t $ domains_t $ obs_t)

(* ----------------------------------------------------------------- figures *)

let figures_cmd =
  let which_t =
    Arg.(
      value
      & pos_all string [ "fig4"; "fig5"; "fig6"; "fig7"; "table1"; "case" ]
      & info [] ~docv:"ARTEFACT"
          ~doc:
            "artefacts to run: fig4 fig5 fig6 fig7 table1 case ablation convergence shape \
             sensitivity nplanes variation nonlinear fillers")
  in
  let run which checkpoint resume domains () =
    with_pool domains @@ fun pool ->
    with_checkpoint checkpoint resume @@ fun checkpoint ->
    let ppf = Format.std_formatter in
    List.iter
      (fun name ->
        match name with
        | "fig4" -> E.Fig4.print ~pool ppf ()
        | "fig5" -> E.Fig5.print ~pool ?checkpoint ppf ()
        | "fig6" -> E.Fig6.print ppf ()
        | "fig7" -> E.Fig7.print ~pool ppf ()
        | "table1" -> E.Table1.print ppf ()
        | "case" -> E.Case_study.print ppf ()
        | "ablation" -> E.Ablation.print ppf ()
        | "convergence" -> E.Convergence.print ppf ()
        | "shape" -> E.Shape.print ppf ()
        | "sensitivity" -> E.Sensitivity.print ~pool ?checkpoint ppf ()
        | "nplanes" -> E.Nplanes.print ~pool ppf ()
        | "variation" -> E.Variation.print ~pool ppf ()
        | "nonlinear" -> E.Nonlinear_study.print ppf ()
        | "fillers" -> E.Fillers.print ppf ()
        | other -> Format.eprintf "unknown artefact %S (skipped)@." other)
      which
  in
  let info = Cmd.info "figures" ~doc:"regenerate the paper's figures and tables" in
  Cmd.v info Term.(const run $ which_t $ checkpoint_t $ resume_t $ domains_t $ obs_t)

(* --------------------------------------------------------------- calibrate *)

let calibrate_cmd =
  let run stack resolution =
    let reference = Solver.max_rise (Solver.solve (Problem.of_stack ~resolution stack)) in
    let fit = Calibrate.fit [ { Calibrate.stack; reference } ] in
    Format.printf "FV reference max dT = %.3f K@." reference;
    Format.printf "fitted coefficients: %a (rms rel err %.2e, %d simplex steps)@."
      Coefficients.pp fit.Calibrate.coefficients fit.Calibrate.rms_rel_error
      fit.Calibrate.iterations
  in
  let info =
    Cmd.info "calibrate"
      ~doc:"fit Model A's k1/k2 on the given geometry against the FV reference"
  in
  Cmd.v info Term.(const run $ stack_t $ resolution_t)

(* -------------------------------------------------------------- case study *)

let case_cmd =
  let segments_t =
    Arg.(value & opt int 1000 & info [ "segments" ] ~doc:"Model B segments per upper plane")
  in
  let run resolution segments =
    E.Case_study.print ~resolution ~segments Format.std_formatter ()
  in
  let info = Cmd.info "case-study" ~doc:"run the section IV-E 3-D DRAM-uP analysis" in
  Cmd.v info Term.(const run $ resolution_t $ segments_t)

(* --------------------------------------------------------------- transient *)

let transient_cmd =
  let dt_t = Arg.(value & opt float 0.2 & info [ "dt" ] ~doc:"time step [ms]") in
  let duration_t = Arg.(value & opt float 200. & info [ "duration" ] ~doc:"duration [ms]") in
  let trace_t =
    Arg.(
      value
      & opt (some file) None
      & info [ "trace" ] ~doc:"CSV power trace (time_s,scale) scaling the heat over time")
  in
  let run stack coeffs dt duration trace =
    let power =
      match trace with
      | None -> fun _ -> 1.
      | Some path ->
        let t = E.Trace.load path in
        Format.printf "trace: %s (peak %.2fx, average %.2fx over %.3f s)@." path (E.Trace.peak t)
          (E.Trace.average t) (E.Trace.duration t);
        E.Trace.scale t
    in
    let r =
      Transient.solve ~coeffs ~power stack ~dt:(dt /. 1000.) ~duration:(duration /. 1000.)
    in
    let n = Array.length r.Transient.times in
    let stride = Stdlib.max 1 (n / 20) in
    Format.printf "%12s %12s@." "t [ms]" "max dT [K]";
    let i = ref 0 in
    while !i < n do
      Format.printf "%12.3f %12.4f@." (r.Transient.times.(!i) *. 1000.) r.Transient.max_rise.(!i);
      i := !i + stride
    done;
    Format.printf "@.steady max dT   = %.4f K@." (Model_a.max_rise r.Transient.steady);
    Format.printf "thermal time constant = %.4f ms@." (Transient.time_constant r *. 1000.);
    Format.printf "settled within 1%%: %b@." (Transient.settled r)
  in
  let info = Cmd.info "transient" ~doc:"step response of the unit cell (RC extension)" in
  Cmd.v info Term.(const run $ stack_t $ coeffs_t $ dt_t $ duration_t $ trace_t)

(* -------------------------------------------------------------------- chip *)

let chip_cmd =
  let grid_t = Arg.(value & opt int 10 & info [ "grid" ] ~doc:"tiles per side") in
  let size_t = Arg.(value & opt float 4. & info [ "size" ] ~doc:"chip edge [mm]") in
  let power_t = Arg.(value & opt float 10. & info [ "power" ] ~doc:"total power per plane [W]") in
  let hotspot_t =
    Arg.(value & opt float 5. & info [ "hotspot" ] ~doc:"extra watts on the hottest tile block")
  in
  let budget_t =
    Arg.(value & opt (some float) None & info [ "budget" ] ~doc:"allocate TTSVs for this max dT [K]")
  in
  let candidates_t =
    Arg.(
      value & opt int 1
      & info [ "candidates" ]
          ~doc:"tiles trial-solved per allocation step (1 = classic greedy)")
  in
  let run stack grid size power hotspot budget candidates domains =
    with_pool domains @@ fun pool ->
    let module Chip = Ttsv_chip.Chip_model in
    let module Pm = Ttsv_chip.Power_map in
    let module Alloc = Ttsv_chip.Allocation in
    let planes = Array.to_list stack.Stack.planes in
    let chip =
      Chip.make ~width:(Units.mm size) ~height:(Units.mm size) ~nx:grid ~ny:grid ~planes
        ~tsv:stack.Stack.tsv ()
    in
    let base = Pm.uniform ~nx:grid ~ny:grid ~total:power in
    let c = (2 * grid) / 3 in
    let top = Pm.add_hotspot base ~x0:c ~y0:c ~x1:(c + 1) ~y1:(c + 1) ~watts:hotspot in
    let maps = List.mapi (fun i _ -> if i = List.length planes - 1 then top else base) planes in
    let bare = Chip.solve chip (Chip.uniform_density chip 0.) maps in
    Format.printf "no TTSVs: max dT = %.2f K at plane %d tile (%d,%d)@."
      bare.Chip.max_rise
      ((fun (p, _, _) -> p + 1) bare.Chip.hottest)
      ((fun (_, x, _) -> x) bare.Chip.hottest)
      ((fun (_, _, y) -> y) bare.Chip.hottest);
    Format.printf "top plane field:@.%t@." (Chip.pp_plane bare ~plane:(List.length planes - 1));
    match budget with
    | None -> ()
    | Some budget ->
      let out =
        Alloc.allocate ~pool chip maps
          {
            (Alloc.default_options ~budget) with
            Alloc.step = 0.01;
            max_density = 0.15;
            candidates;
          }
      in
      Format.printf "@.allocation for dT <= %.2f K: feasible=%b after %d iterations@." budget
        out.Alloc.feasible out.Alloc.iterations;
      Format.printf "max dT = %.2f K, via metal %.4f mm^2@."
        out.Alloc.final.Chip.max_rise
        (out.Alloc.metal_area *. 1e6);
      Format.printf "density map:@.%t@." (Alloc.pp_densities chip out.Alloc.densities)
  in
  let info = Cmd.info "chip" ~doc:"full-chip compact model with a hotspot (extension)" in
  Cmd.v info
    Term.(
      const run $ stack_t $ grid_t $ size_t $ power_t $ hotspot_t $ budget_t $ candidates_t
      $ domains_t)

(* ------------------------------------------------------------------- serve *)

let serve_cmd =
  let module Engine = Ttsv_service.Engine in
  let batch_t =
    Arg.(
      value & opt int 64
      & info [ "batch" ] ~docv:"N"
          ~doc:
            "requests read per batch; the batch is sharded across the worker domains and \
             answered in input order before the next one is read")
  in
  let cap name default doc =
    Arg.(value & opt int default & info [ name ] ~docv:"N" ~doc)
  in
  let operators_t = cap "cache-operators" 32 "assembled-operator cache capacity (LRU)" in
  let solutions_t = cap "cache-solutions" 64 "warm-start solution cache capacity (LRU)" in
  let run batch operators solutions domains () =
    with_pool domains @@ fun pool ->
    let engine = Engine.create ~pool ~operators ~solutions () in
    let answered = Engine.serve ~batch engine stdin stdout in
    Format.eprintf "served %d request(s), cache hit rate %.2f@." answered
      (Engine.hit_rate engine)
  in
  let info =
    Cmd.info "serve"
      ~doc:"answer batched solve/sweep/chip-allocation requests over stdin/stdout"
      ~man:
        [
          `S Manpage.s_description;
          `P
            "Reads one ttsv.request.v1 JSON object per line from stdin and writes one \
             ttsv.response.v1 object per line to stdout, in input order.  Repeated or \
             nearby geometries are served from bounded LRU caches (assembled operators and \
             warm-start solutions); malformed lines yield typed \
             error responses, never a crash.  Combine with $(b,--trace)/$(b,--metrics) to \
             profile a serving session with obs_report.";
        ]
  in
  Cmd.v info
    Term.(
      const run $ batch_t $ operators_t $ solutions_t $ domains_t $ obs_t)

(* ------------------------------------------------------------------ export *)

let export_cmd =
  let out_t =
    Arg.(value & opt string "results" & info [ "out" ] ~doc:"output directory for CSV files")
  in
  let run out domains =
    with_pool domains @@ fun pool ->
    if not (Sys.file_exists out) then Sys.mkdir out 0o755;
    let figure name fig =
      let path = Filename.concat out (name ^ ".csv") in
      E.Export.write_figure fig path;
      Format.printf "wrote %s@." path
    in
    figure "fig4" (E.Fig4.run ~pool ());
    figure "fig5" (E.Fig5.run ~pool ());
    figure "fig6" (E.Fig6.run ());
    figure "fig7" (E.Fig7.run ~pool ());
    let table1 = E.Table1.to_table (E.Table1.run ()) in
    let path = Filename.concat out "table1.csv" in
    E.Export.write_table table1 path;
    Format.printf "wrote %s@." path
  in
  let info = Cmd.info "export" ~doc:"write the reproduced figures and tables as CSV" in
  Cmd.v info Term.(const run $ out_t $ domains_t)

(* --------------------------------------------------------------- materials *)

let materials_cmd =
  let run () =
    Format.printf "%-20s %14s %18s@." "name" "k [W/m.K]" "rho*c [J/m^3.K]";
    List.iter
      (fun (m : Material.t) ->
        Format.printf "%-20s %14.3f %18.3g@." m.Material.name m.Material.conductivity
          m.Material.volumetric_heat_capacity)
      Materials.all
  in
  let info = Cmd.info "materials" ~doc:"list the material library" in
  Cmd.v info Term.(const run $ const ())

let main =
  let doc = "analytical heat-transfer models for thermal through-silicon vias (DATE 2011)" in
  let info = Cmd.info "ttsv" ~version:"1.0.0" ~doc in
  Cmd.group info
    [
      solve_cmd;
      sweep_cmd;
      figures_cmd;
      calibrate_cmd;
      case_cmd;
      transient_cmd;
      chip_cmd;
      serve_cmd;
      export_cmd;
      materials_cmd;
    ]

let () = exit (Cmd.eval main)
