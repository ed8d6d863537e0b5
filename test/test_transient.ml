(* Tests for the transient RC extension. *)

module Params = Ttsv_core.Params
module Model_a = Ttsv_core.Model_a
module Transient = Ttsv_core.Transient
open Helpers

(* the block's thermal time constant is dominated by the thick first
   substrate: R ~ 400 K/W, C ~ 8e-6 J/K, tau ~ 3 ms *)
let dt = 2e-4
let duration = 0.2

let run = lazy (Transient.solve (Params.block ()) ~dt ~duration)

let unit_tests =
  [
    test "starts cold" (fun () ->
        let r = Lazy.force run in
        close "t=0" 0. r.Transient.max_rise.(0));
    test "monotone heating under a power step" (fun () ->
        let r = Lazy.force run in
        let ok = ref true in
        for i = 0 to Array.length r.Transient.max_rise - 2 do
          if r.Transient.max_rise.(i + 1) < r.Transient.max_rise.(i) -. 1e-12 then ok := false
        done;
        Alcotest.(check bool) "monotone" true !ok);
    test "settles to the steady Model A solution" (fun () ->
        let r = Lazy.force run in
        Alcotest.(check bool) "settled" true (Transient.settled ~tol:0.01 r);
        let final = r.Transient.max_rise.(Array.length r.Transient.max_rise - 1) in
        close_rel ~tol:0.01 "steady limit" (Model_a.max_rise r.Transient.steady) final);
    test "never overshoots steady state" (fun () ->
        let r = Lazy.force run in
        let steady = Model_a.max_rise r.Transient.steady in
        Array.iter
          (fun x -> Alcotest.(check bool) "below steady" true (x <= steady *. (1. +. 1e-9)))
          r.Transient.max_rise);
    test "time constant is positive and less than the settle time" (fun () ->
        let r = Lazy.force run in
        let tau = Option.get (Transient.time_constant r) in
        Alcotest.(check bool) "positive" true (tau > 0.);
        Alcotest.(check bool) "well within duration" true (tau < duration /. 2.));
    test "time constant is None when the run ends before it" (fun () ->
        (* 1 ms is shorter than the block's ~2 ms time constant *)
        let r = Transient.solve (Params.block ()) ~dt ~duration:1e-3 in
        Alcotest.(check bool) "not reached" true (Transient.time_constant r = None));
    test "zero power function keeps the stack cold" (fun () ->
        let r =
          Transient.solve ~power:(fun _ -> 0.) (Params.block ()) ~dt:1e-3 ~duration:1e-2
        in
        Array.iter (fun x -> close "cold" 0. x) r.Transient.max_rise);
    test "bulk trace dimensions" (fun () ->
        let r = Lazy.force run in
        Alcotest.(check int) "planes" 3 (Array.length r.Transient.bulk.(0));
        Alcotest.(check int) "samples" (Array.length r.Transient.times)
          (Array.length r.Transient.max_rise));
    test "validation" (fun () ->
        check_raises_invalid "dt" (fun () ->
            ignore (Transient.solve (Params.block ()) ~dt:0. ~duration:1.));
        check_raises_invalid "duration" (fun () ->
            ignore (Transient.solve (Params.block ()) ~dt:1e-3 ~duration:0.));
        check_raises_invalid "dt past duration" (fun () ->
            ignore (Transient.solve (Params.block ()) ~dt:1. ~duration:1e-3)));
    test "duty-cycled power stays below the constant-power response" (fun () ->
        let stack = Params.block () in
        let steady = Transient.solve stack ~dt ~duration in
        let pulsed =
          Transient.solve
            ~power:(fun t -> if Float.rem t 2e-2 < 1e-2 then 1. else 0.2)
            stack ~dt ~duration
        in
        let last a = a.(Array.length a - 1) in
        Alcotest.(check bool) "pulsed cooler" true
          (last pulsed.Transient.max_rise < last steady.Transient.max_rise));
  ]

let property_tests =
  [
    qtest ~count:10 "transient limit equals steady state on random blocks" gen_stack3 (fun s ->
        let r = Transient.solve s ~dt:2e-4 ~duration:0.3 in
        let final = r.Transient.max_rise.(Array.length r.Transient.max_rise - 1) in
        Float.abs (final -. Model_a.max_rise r.Transient.steady)
        /. Model_a.max_rise r.Transient.steady
        < 0.02);
  ]

let suite = ("transient", unit_tests @ property_tests)
