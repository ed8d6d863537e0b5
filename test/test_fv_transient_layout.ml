(* Tests for the FV transient solver. *)

module Params = Ttsv_core.Params
module Transient = Ttsv_core.Transient
module Problem = Ttsv_fem.Problem
module Solver = Ttsv_fem.Solver
open Helpers

let fv_transient_tests =
  [
    test "FV transient converges to the FV steady state" (fun () ->
        let stack = Params.block () in
        let problem = Problem.of_stack stack in
        let steady = Solver.max_rise (Solver.solve problem) in
        let materials = Problem.materials_of_stack stack in
        let tr = Solver.solve_transient ~materials ~dt:2e-3 ~steps:60 problem in
        let last = tr.Solver.max_rises.(Array.length tr.Solver.max_rises - 1) in
        close_rel ~tol:0.01 "settles" steady last);
    test "FV transient is monotone under a power step" (fun () ->
        let stack = Params.block () in
        let problem = Problem.of_stack stack in
        let materials = Problem.materials_of_stack stack in
        let tr = Solver.solve_transient ~materials ~dt:1e-3 ~steps:20 problem in
        let ok = ref true in
        for i = 0 to Array.length tr.Solver.max_rises - 2 do
          if tr.Solver.max_rises.(i + 1) < tr.Solver.max_rises.(i) -. 1e-12 then ok := false
        done;
        Alcotest.(check bool) "monotone" true !ok;
        close "starts cold" 0. tr.Solver.max_rises.(0));
    test "FV and lumped transients agree on the time scale" (fun () ->
        (* the lumped Model A transient and the field transient should reach
           63% of their own steady states within a factor ~2 of each other *)
        let stack = Params.block () in
        let lumped = Transient.solve stack ~dt:2e-4 ~duration:0.05 in
        let tau_lumped = Option.get (Transient.time_constant lumped) in
        let problem = Problem.of_stack stack in
        let materials = Problem.materials_of_stack stack in
        let tr = Solver.solve_transient ~materials ~dt:5e-4 ~steps:100 problem in
        let steady = tr.Solver.max_rises.(Array.length tr.Solver.max_rises - 1) in
        let target = (1. -. exp (-1.)) *. steady in
        let tau_fv =
          let i = ref 0 in
          while tr.Solver.max_rises.(!i) < target do
            incr i
          done;
          tr.Solver.times.(!i)
        in
        Alcotest.(check bool)
          (Printf.sprintf "tau lumped %.2g vs FV %.2g" tau_lumped tau_fv)
          true
          (tau_fv /. tau_lumped < 2.5 && tau_lumped /. tau_fv < 2.5));
    test "transient validation" (fun () ->
        let stack = Params.block () in
        let problem = Problem.of_stack stack in
        let materials = Problem.materials_of_stack stack in
        check_raises_invalid "dt" (fun () ->
            ignore (Solver.solve_transient ~materials ~dt:0. ~steps:5 problem));
        check_raises_invalid "materials" (fun () ->
            ignore
              (Solver.solve_transient
                 ~materials:[| Ttsv_physics.Materials.silicon |]
                 ~dt:1e-3 ~steps:5 problem)));
  ]

let suite = ("fv-transient+layout", fv_transient_tests)
