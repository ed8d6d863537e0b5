(* Aggregates every suite into one alcotest runner (dune runtest).

   When TTSV_FAULTS is set, only the chaos suite runs: a globally armed
   fault engine injects NaNs and worker crashes by design, which breaks
   the determinism and golden contracts every other suite pins.  The CI
   chaos job uses exactly this gate to replay the chaos suite across
   seeds. *)

let all_suites =
  [
    Test_vec.suite;
    Test_dense.suite;
    Test_banded.suite;
    Test_sparse.suite;
    Test_iterative.suite;
    Test_multigrid.suite;
    Test_robust.suite;
    Test_optimize.suite;
    Test_interp_stats.suite;
    Test_physics.suite;
    Test_geometry.suite;
    Test_network.suite;
    Test_resistances.suite;
    Test_model_a.suite;
    Test_model_b.suite;
    Test_model_1d.suite;
    Test_cluster.suite;
    Test_transient.suite;
    Test_calibrate.suite;
    Test_fem.suite;
    Test_experiments.suite;
    Test_chip.suite;
    Test_export.suite;
    Test_fem3.suite;
    Test_richardson.suite;
    Test_sensitivity.suite;
    Test_rng.suite;
    Test_package_spreading.suite;
    Test_extensions.suite;
    Test_nonlinear.suite;
    Test_quadrature.suite;
    Test_fv_transient_layout.suite;
    Test_trace.suite;
    Test_integration.suite;
    Test_properties.suite;
    Test_precond.suite;
    Test_parallel.suite;
    Test_obs.suite;
    Test_service.suite;
    Test_profile.suite;
    Test_golden.suite;
    Test_chaos.suite;
  ]

let () =
  match Sys.getenv_opt "TTSV_FAULTS" with
  | Some spec when String.trim spec <> "" -> Alcotest.run "ttsv-chaos" [ Test_chaos.suite ]
  | Some _ | None -> Alcotest.run "ttsv" all_suites
