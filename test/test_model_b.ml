(* Tests for the distributed pi-segment Model B. *)

module Units = Ttsv_physics.Units
module Params = Ttsv_core.Params
module Model_a = Ttsv_core.Model_a
module Model_b = Ttsv_core.Model_b
module Stack = Ttsv_geometry.Stack
open Helpers

let gen_counts =
  QCheck2.Gen.(array_size (return 3) (int_range 1 30))

let unit_tests =
  [
    test "paper segmentation convention" (fun () ->
        let s = Params.block () in
        let seg = Model_b.paper_segmentation s 100 in
        let total i = fst seg.(i) + snd seg.(i) in
        Alcotest.(check int) "plane1 = n/10" 10 (total 0);
        Alcotest.(check int) "plane2 = n" 100 (total 1);
        Alcotest.(check int) "plane3 = n" 100 (total 2));
    test "paper segmentation of B(1)" (fun () ->
        let s = Params.block () in
        let seg = Model_b.paper_segmentation s 1 in
        Alcotest.(check int) "plane1" 1 (fst seg.(0) + snd seg.(0));
        (* the top plane keeps a substrate segment: bumped to 2 *)
        Alcotest.(check bool) "top has si seg" true (snd seg.(2) >= 1));
    test "node count matches segmentation" (fun () ->
        let s = Params.block () in
        let r = Model_b.solve_n s 10 in
        (* every non-top-ILD segment has 2 nodes, top-plane ILD segments 1,
           plus T0 *)
        Alcotest.(check bool) "plausible node count" true
          (r.Model_b.nodes > 20 && r.Model_b.nodes <= 2 + (2 * 2 * 21)));
    test "banded assembly equals the generic circuit solver" (fun () ->
        let s = Params.block () in
        let seg = Model_b.paper_segmentation s 20 in
        let banded = Model_b.max_rise (Model_b.solve s seg) in
        let circuit = Model_b.solve_via_circuit s seg in
        close_rel ~tol:1e-9 "same max" circuit banded);
    test "temperature profile rises with z on the bulk column" (fun () ->
        let s = Params.block () in
        let r = Model_b.solve_n s 50 in
        let profile = Model_b.bulk_profile r in
        let n = Array.length profile in
        Alcotest.(check bool) "top hotter than bottom" true
          (snd profile.(n - 1) > snd profile.(0));
        (* z is strictly increasing *)
        let increasing = ref true in
        for i = 0 to n - 2 do
          if fst profile.(i) >= fst profile.(i + 1) then increasing := false
        done;
        Alcotest.(check bool) "z increasing" true !increasing;
        close_rel "profile spans the TSV-foot to top height"
          (Stack.total_height s -. (Stack.plane s 0).Ttsv_geometry.Plane.t_substrate
          +. s.Stack.tsv.Ttsv_geometry.Tsv.extension)
          (fst profile.(n - 1)));
    test "segment count convergence is monotone downward for the block" (fun () ->
        let s = Params.block () in
        let rise n = Model_b.max_rise (Model_b.solve_n s n) in
        let r1 = rise 1 and r20 = rise 20 and r100 = rise 100 and r500 = rise 500 in
        Alcotest.(check bool) "1>20" true (r1 > r20);
        Alcotest.(check bool) "20>100" true (r20 > r100);
        Alcotest.(check bool) "100>500" true (r100 > r500));
    test "B(500) vs B(1000) nearly converged" (fun () ->
        let s = Params.block () in
        let a = Model_b.max_rise (Model_b.solve_n s 500) in
        let b = Model_b.max_rise (Model_b.solve_n s 1000) in
        Alcotest.(check bool) "within 0.5%" true (Float.abs (a -. b) /. b < 0.005));
    test "t0 equals Rs * total heat" (fun () ->
        let s = Params.block () in
        let r = Model_b.solve_n s 50 in
        let rs = Ttsv_core.Resistances.of_stack s in
        close_rel ~tol:1e-9 "t0"
          (rs.Ttsv_core.Resistances.r_sink *. Stack.total_heat s)
          r.Model_b.t0);
    test "cluster division reduces the rise" (fun () ->
        let s = Params.fig7_stack () in
        let rise n = Model_b.max_rise (Model_b.solve_n ~cluster:n s 100) in
        Alcotest.(check bool) "n=4 cooler" true (rise 4 < rise 1);
        Alcotest.(check bool) "n=16 cooler still" true (rise 16 < rise 4));
    test "diminishing returns of cluster division" (fun () ->
        let s = Params.fig7_stack () in
        let rise n = Model_b.max_rise (Model_b.solve_n ~cluster:n s 100) in
        let d1 = rise 1 -. rise 4 and d2 = rise 4 -. rise 16 in
        Alcotest.(check bool) "saturating" true (d2 < d1));
    test "segmentation validation" (fun () ->
        let s = Params.block () in
        check_raises_invalid "counts length" (fun () ->
            ignore (Model_b.segmentation_for s ~counts:[| 1; 1 |]));
        check_raises_invalid "zero count" (fun () ->
            ignore (Model_b.segmentation_for s ~counts:[| 0; 1; 1 |]));
        check_raises_invalid "cluster" (fun () ->
            ignore (Model_b.solve ~cluster:0 s (Model_b.paper_segmentation s 10))));
    test "B(100) allocates at most a third of the boxed-band assembly" (fun () ->
        (* Stamping through cross-module Banded.add_to calls boxed every
           float: 37,422-37,719 minor words per B(100).  Stamping into the
           flat band left the result's profiles, the walk's callback
           arguments and their lists: 8,540 words.  With the profiles
           built on demand, the walk's boxed callback arguments are most
           of what is left: 2,246 words. *)
        let s = Params.block () in
        ignore (Model_b.solve_n s 100);
        let before = Gc.minor_words () in
        ignore (Sys.opaque_identity (Model_b.solve_n s 100));
        let words = Gc.minor_words () -. before in
        Alcotest.(check bool)
          (Printf.sprintf "%.0f minor words <= 37422 / 3" words)
          true
          (words <= 37422. /. 3.));
    test "B(100) allocates on the major heap only its temps" (fun () ->
        (* Arrays over 256 words go straight to the major heap.  Stamping
           into a fresh band and right-hand side, which Banded.solve then
           copied, put 4,960 words there per B(100) (413 nodes); the
           per-domain scratch leaves just the result's temps: 414 words,
           header included. *)
        let s = Params.block () in
        ignore (Model_b.solve_n s 100);
        let direct_major () =
          let _, promoted, major = Gc.counters () in
          major -. promoted
        in
        let before = direct_major () in
        let r = Sys.opaque_identity (Model_b.solve_n s 100) in
        let words = direct_major () -. before in
        Alcotest.(check bool)
          (Printf.sprintf "%.0f major words <= %d nodes + 16" words r.Model_b.nodes)
          true
          (words <= float_of_int (r.Model_b.nodes + 16)));
    test "B(100) does not depend on what the domain solved before" (fun () ->
        (* the scratch band is reused across solves: a prefix left dirty
           by a larger ladder, or too short after a smaller one, would
           show here *)
        let s = Params.block () in
        let fresh = Domain.join (Domain.spawn (fun () -> Model_b.solve_n s 100)) in
        let after n =
          ignore (Model_b.solve_n s n);
          Model_b.solve_n s 100
        in
        let bits (r : Model_b.result) =
          Array.map Int64.bits_of_float (Array.append [| r.Model_b.t0 |] r.Model_b.temps)
        in
        let reference = bits fresh in
        Alcotest.(check (array int64)) "after B(2000)" reference (bits (after 2000));
        Alcotest.(check (array int64)) "after B(1)" reference (bits (after 1)));
    test "B(1) is close to unity-coefficient Model A" (fun () ->
        (* same physics, different lumping: they should agree within ~15% *)
        let s = Params.block () in
        let b1 = Model_b.max_rise (Model_b.solve_n s 1) in
        let a = Model_a.max_rise (Model_a.solve s) in
        Alcotest.(check bool)
          (Printf.sprintf "B(1)=%.2f vs A=%.2f" b1 a)
          true
          (Float.abs (b1 -. a) /. a < 0.15));
  ]

let property_tests =
  [
    qtest ~count:25 "banded equals circuit oracle on random segmentations"
      QCheck2.Gen.(pair gen_stack3 gen_counts)
      (fun (s, counts) ->
        let seg = Model_b.segmentation_for s ~counts in
        let banded = Model_b.max_rise (Model_b.solve s seg) in
        let oracle = Model_b.solve_via_circuit s seg in
        Float.abs (banded -. oracle) < 1e-8 *. Float.max 1. oracle);
    qtest ~count:25 "all nodal rises are positive" QCheck2.Gen.(pair gen_stack gen_counts)
      (fun (s, _) ->
        let r = Model_b.solve_n s 20 in
        Array.for_all (fun t -> t > 0.) r.Model_b.temps);
    qtest ~count:25 "refining the mesh never changes the answer wildly" gen_stack3 (fun s ->
        let a = Model_b.max_rise (Model_b.solve_n s 100) in
        let b = Model_b.max_rise (Model_b.solve_n s 200) in
        Float.abs (a -. b) /. b < 0.07);
  ]

let suite = ("model_b", unit_tests @ property_tests)
