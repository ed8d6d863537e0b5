(* Tests for the deterministic RNG. *)

module Rng = Ttsv_numerics.Rng
module Stats = Ttsv_numerics.Stats
open Helpers

let draw n f =
  let g = Rng.create 12345 in
  Array.init n (fun _ -> f g)

let unit_tests =
  [
    test "deterministic for a fixed seed" (fun () ->
        let a = draw 100 Rng.uniform and b = draw 100 Rng.uniform in
        Alcotest.(check bool) "identical streams" true (a = b));
    test "different seeds give different streams" (fun () ->
        let g1 = Rng.create 1 and g2 = Rng.create 2 in
        let a = Array.init 10 (fun _ -> Rng.uniform g1) in
        let b = Array.init 10 (fun _ -> Rng.uniform g2) in
        Alcotest.(check bool) "different" true (a <> b));
    test "uniform stays in [0, 1)" (fun () ->
        Array.iter
          (fun u -> Alcotest.(check bool) "range" true (u >= 0. && u < 1.))
          (draw 10000 Rng.uniform));
    test "uniform mean near 1/2 and variance near 1/12" (fun () ->
        let xs = draw 20000 Rng.uniform in
        close ~tol:0.01 "mean" 0.5 (Ttsv_numerics.Vec.mean xs);
        close ~tol:0.01 "variance" (1. /. 12.) (Stats.variance xs));
    test "normal mean and sigma" (fun () ->
        let xs = draw 20000 (fun g -> Rng.normal g ~mean:3. ~sigma:2.) in
        close ~tol:0.05 "mean" 3. (Ttsv_numerics.Vec.mean xs);
        close ~tol:0.05 "sigma" 2. (Stats.stddev xs));
    test "normal sigma=0 is constant" (fun () ->
        let xs = draw 10 (fun g -> Rng.normal g ~mean:1.5 ~sigma:0.) in
        Array.iter (fun x -> close "const" 1.5 x) xs);
    test "normal rejects negative sigma" (fun () ->
        check_raises_invalid "sigma" (fun () ->
            ignore (Rng.normal (Rng.create 0) ~mean:0. ~sigma:(-1.))));
    test "lognormal factor has median ~1" (fun () ->
        let xs = draw 20001 (fun g -> Rng.lognormal_factor g ~sigma:0.3) in
        close ~tol:0.05 "median" 1. (Stats.median xs);
        Array.iter (fun x -> Alcotest.(check bool) "positive" true (x > 0.)) xs);
  ]

let suite = ("rng", unit_tests)
