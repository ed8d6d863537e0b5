(* Transient extension: how fast does the unit cell heat up after a power
   step, and what does a duty-cycled (DVFS-style) workload look like?

     dune exec examples/transient_response.exe *)

module Params = Ttsv_core.Params
module Model_a = Ttsv_core.Model_a
module Transient = Ttsv_core.Transient
module Coefficients = Ttsv_core.Coefficients

let bar width value scale =
  let n = Stdlib.max 0 (Stdlib.min width (int_of_float (value /. scale *. float_of_int width))) in
  String.make n '#'

let () =
  let stack = Params.block () in
  let coeffs = Coefficients.paper_block in

  (* 1. step response *)
  let step = Transient.solve ~coeffs stack ~dt:2e-4 ~duration:0.04 in
  let steady = Model_a.max_rise step.Transient.steady in
  Format.printf "power step at t=0; steady max dT = %.2f K@.@." steady;
  let n = Array.length step.Transient.times in
  let stride = Stdlib.max 1 (n / 25) in
  let i = ref 0 in
  while !i < n do
    Format.printf "%8.2f ms %8.3f K |%s@."
      (step.Transient.times.(!i) *. 1000.)
      step.Transient.max_rise.(!i)
      (bar 40 step.Transient.max_rise.(!i) steady);
    i := !i + stride
  done;
  (match Transient.time_constant step with
  | Some tau -> Format.printf "@.thermal time constant (63%% of steady): %.3f ms@.@." (tau *. 1000.)
  | None -> Format.printf "@.thermal time constant not reached within 40 ms@.@.");

  (* 2. duty-cycled workload: 8 ms on, 8 ms at 20% *)
  let period = 16e-3 in
  let power t = if Float.rem t period < period /. 2. then 1. else 0.2 in
  let pulsed = Transient.solve ~coeffs ~power stack ~dt:2e-4 ~duration:0.08 in
  let peak = Array.fold_left Float.max 0. pulsed.Transient.max_rise in
  let last = pulsed.Transient.max_rise.(Array.length pulsed.Transient.max_rise - 1) in
  Format.printf "duty-cycled workload (50%% duty, 5x power swing):@.";
  Format.printf "  peak dT %.2f K vs steady-at-full-power %.2f K -> %.0f%% thermal headroom \
                 recovered@."
    peak steady
    (100. *. (steady -. peak) /. steady);
  Format.printf "  dT at the end of the trace: %.2f K@." last
