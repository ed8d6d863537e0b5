(* Tests for power-trace parsing and evaluation. *)

module Trace = Ttsv_experiments.Trace
module Transient = Ttsv_core.Transient
module Params = Ttsv_core.Params
open Helpers

let unit_tests =
  [
    test "parse with header and comments" (fun () ->
        let t = Trace.parse "# a comment\ntime_s,scale\n0,1\n1,2\n2,0.5\n" in
        close_rel "duration" 2. (Trace.duration t);
        close_rel "peak" 2. (Trace.peak t);
        close "at 0" 1. (Trace.scale t 0.);
        close "midpoint interpolates" 1.5 (Trace.scale t 0.5));
    test "clamps outside the domain" (fun () ->
        let t = Trace.of_points [ (0., 1.); (1., 3.) ] in
        close "before" 1. (Trace.scale t (-5.));
        close "after" 3. (Trace.scale t 10.));
    test "single point is constant" (fun () ->
        let t = Trace.of_points [ (0., 0.7) ] in
        close "anywhere" 0.7 (Trace.scale t 42.);
        close "average" 0.7 (Trace.average t));
    test "average of a triangle" (fun () ->
        let t = Trace.of_points [ (0., 0.); (1., 1.) ] in
        close_rel "trapezoid" 0.5 (Trace.average t));
    test "malformed row after data fails with a line number" (fun () ->
        match Trace.parse "0,1\nnot,numbers\n" with
        | exception Failure msg ->
          Alcotest.(check bool) "mentions line" true
            (String.length msg > 0
            && Option.is_some (String.index_opt msg '2'))
        | _ -> Alcotest.fail "expected Failure");
    test "empty input fails" (fun () ->
        match Trace.parse "# nothing\n" with
        | exception Failure _ -> ()
        | _ -> Alcotest.fail "expected Failure");
    test "negative scale rejected" (fun () ->
        check_raises_invalid "scale" (fun () -> ignore (Trace.of_points [ (0., -1.) ])));
    test "duplicate times rejected" (fun () ->
        (* two samples at t = 0 used to lose one of them silently *)
        check_raises_invalid "duplicate" (fun () ->
            ignore (Trace.of_points [ (0., 1.); (1., 2.); (0., 5.) ])));
    test "square wave duty cycle and average" (fun () ->
        let t = Trace.square_wave ~period:1e-2 ~duty:0.25 ~high:1. ~low:0. ~samples:16 in
        close "high at start" 1. (Trace.scale t 1e-3);
        close "low in the tail" 0. (Trace.scale t 6e-3);
        (* average ~ duty * high + (1-duty) * low *)
        close ~tol:0.02 "average" 0.25 (Trace.average t));
    test "square wave validation" (fun () ->
        check_raises_invalid "duty" (fun () ->
            ignore (Trace.square_wave ~period:1. ~duty:1.5 ~high:1. ~low:0. ~samples:16)));
    test "trace drives the lumped transient" (fun () ->
        let stack = Params.block () in
        let t = Trace.square_wave ~period:8e-3 ~duty:0.5 ~high:1. ~low:0.2 ~samples:64 in
        let pulsed =
          Transient.solve ~power:(Trace.scale t) stack ~dt:2e-4 ~duration:0.04
        in
        let steady = Transient.solve stack ~dt:2e-4 ~duration:0.04 in
        let last a = a.(Array.length a - 1) in
        Alcotest.(check bool) "pulsed runs cooler" true
          (last pulsed.Transient.max_rise < last steady.Transient.max_rise);
        Alcotest.(check bool) "but not cold" true (last pulsed.Transient.max_rise > 0.));
    test "load roundtrips through a file" (fun () ->
        let path = Filename.temp_file "ttsv_trace" ".csv" in
        Fun.protect
          ~finally:(fun () -> Sys.remove path)
          (fun () ->
            let oc = open_out path in
            output_string oc "0,1\n0.5,2\n";
            close_out oc;
            let t = Trace.load path in
            close_rel "peak" 2. (Trace.peak t)));
  ]

let suite = ("trace", unit_tests)
