(* The profiling layer: History ring-buffer semantics, Profile's trace
   analysis (exact on a hand-built trace, v1-compatible, and consistent
   with the raw span records of a real traced solve), the Regress bench
   gate (passes on identical benches, names the offending metric on
   injected wall/iteration regressions), and Multigrid's per-cycle
   history. *)

module Json = Ttsv_obs.Json
module History = Ttsv_obs.History
module Profile = Ttsv_obs.Profile
module Regress = Ttsv_obs.Regress
module Config = Ttsv_obs.Config
module Sink = Ttsv_obs.Sink
module Robust = Ttsv_robust.Robust
module Multigrid = Ttsv_numerics.Multigrid

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  n = 0 || go 0

(* ------------------------------------------------------------- history *)

let test_history_ring () =
  Helpers.check_raises_invalid "cap must be positive" (fun () ->
      History.create ~cap:0 ~meth:"cg" ());
  let h = History.create ~cap:4 ~meth:"cg" () in
  Alcotest.(check int) "capacity" 4 (History.capacity h);
  for i = 0 to 2 do
    History.record h i (float_of_int (100 - i))
  done;
  let s = History.snapshot h in
  Alcotest.(check string) "method survives" "cg" s.History.meth;
  Alcotest.(check int) "total below cap" 3 s.History.total;
  Alcotest.(check (array int)) "window below cap keeps everything" [| 0; 1; 2 |]
    s.History.iterations;
  for i = 3 to 9 do
    History.record h i (float_of_int (100 - i))
  done;
  let s = History.snapshot h in
  Alcotest.(check int) "total counts overwritten entries" 10 s.History.total;
  Alcotest.(check (array int)) "ring keeps the newest cap entries, oldest first"
    [| 6; 7; 8; 9 |] s.History.iterations;
  Array.iteri
    (fun k iter ->
      Helpers.close
        (Printf.sprintf "residual %d rides with its iteration" k)
        (float_of_int (100 - iter))
        s.History.residuals.(k))
    s.History.iterations

(* ---------------------------------------------------- synthetic profile *)

let meta_line schema =
  Json.to_string
    (Json.Obj [ ("type", Json.String "meta"); ("schema", Json.String schema) ])

let span_line ~id ~parent ~name ~start ~dur =
  Json.to_string
    (Json.Obj
       [
         ("type", Json.String "span");
         ("id", Json.Int id);
         ("parent", match parent with Some p -> Json.Int p | None -> Json.Null);
         ("domain", Json.Int 0);
         ("depth", Json.Int (if parent = None then 0 else 1));
         ("name", Json.String name);
         ("start", Json.Float start);
         ("dur", Json.Float dur);
       ])

(* a: [0, 1.0] with two b-children of 0.4 and 0.3 — every derived number
   is a dyadic-free hand sum, so the checks are exact *)
let synthetic schema =
  [
    meta_line schema;
    span_line ~id:2 ~parent:(Some 1) ~name:"b" ~start:0.1 ~dur:0.4;
    span_line ~id:3 ~parent:(Some 1) ~name:"b" ~start:0.5 ~dur:0.3;
    span_line ~id:1 ~parent:None ~name:"a" ~start:0. ~dur:1.0;
    Json.to_string
      (Json.Obj
         [
           ("type", Json.String "conv");
           ("method", Json.String "cg");
           ("total", Json.Int 3);
           ("iterations", Json.List [ Json.Int 0; Json.Int 1; Json.Int 2 ]);
           ("residuals", Json.List [ Json.Float 1.0; Json.Float 0.5; Json.Float 0.25 ]);
           ("t", Json.Float 0.9);
           ("span", Json.Int 2);
         ]);
  ]

let profile_exn lines =
  match Profile.of_lines lines with
  | Ok t -> t
  | Error e -> Alcotest.fail ("Profile.of_lines failed: " ^ e)

let test_profile_synthetic () =
  let t = profile_exn (synthetic Sink.schema) in
  Alcotest.(check int) "three spans" 3 (List.length t.Profile.spans);
  Alcotest.(check int) "one root" 1 (List.length (Profile.roots t));
  (match Profile.totals t with
  | [ b; a ] ->
    Alcotest.(check string) "b leads on self time" "b" b.Profile.agg_name;
    Alcotest.(check int) "b count" 2 b.Profile.agg_count;
    Helpers.close "b total" 0.7 b.Profile.agg_total;
    Helpers.close "b self (leaves)" 0.7 b.Profile.agg_self;
    Helpers.close "a total" 1.0 a.Profile.agg_total;
    Helpers.close "a self = dur minus children" 0.3 a.Profile.agg_self
  | l -> Alcotest.failf "expected two aggregate rows, got %d" (List.length l));
  (match Profile.collapsed t with
  | [ ("a", sa); ("a;b", sb) ] ->
    Helpers.close "collapsed a" 0.3 sa;
    Helpers.close "collapsed a;b merges both children" 0.7 sb
  | l ->
    Alcotest.failf "unexpected collapsed stacks: %s"
      (String.concat " | " (List.map fst l)));
  (match Profile.critical_path t with
  | [ (r, _); (k, _) ] ->
    Alcotest.(check string) "path starts at the root" "a" r.Profile.name;
    Helpers.close "path follows the longest child" 0.4 k.Profile.dur
  | l -> Alcotest.failf "expected a 2-deep critical path, got %d" (List.length l));
  (match t.Profile.convs with
  | [ c ] ->
    Alcotest.(check string) "conv method" "cg" c.Profile.meth;
    Alcotest.(check (option string))
      "conv labelled with its stack" (Some "a;b")
      (Option.bind c.Profile.span (Profile.span_label t))
  | l -> Alcotest.failf "expected one conv record, got %d" (List.length l))

let test_profile_schemas () =
  (* only the current schema loads: a v1 file gets the same
     unsupported-schema error as any other version *)
  List.iter
    (fun schema ->
      match Profile.of_lines (synthetic schema) with
      | Error e ->
        Alcotest.(check bool)
          (Printf.sprintf "error %S names the schema" e)
          true
          (contains ~sub:schema e)
      | Ok _ -> Alcotest.failf "schema %s must be rejected" schema)
    [ "ttsv.trace.v1"; "ttsv.trace.v99" ];
  match Profile.of_lines (List.tl (synthetic Sink.schema)) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "a trace without a meta line must be rejected"

(* ---------------------------------------------------------- real trace *)

(* trace an actual ladder solve, then check Profile's aggregates against
   the raw span records: per-name totals must match the plain sum of
   durations, and the collapsed stacks must account for the full traced
   wall time (sum of root durations) to within 1% *)
let test_profile_real_trace () =
  let n = 60 in
  let a =
    QCheck2.Gen.generate1 ~rand:(Random.State.make [| 2029 |]) (Helpers.gen_spd n)
  in
  let path = Filename.temp_file "ttsv_profile" ".jsonl" in
  Config.enable_trace path;
  (match Robust.solve a (Array.make n 1.) with
  | Ok _ -> ()
  | Error _ -> Alcotest.fail "Robust.solve failed on an SPD system");
  Config.disable_trace ();
  let t = profile_exn (In_channel.with_open_text path In_channel.input_lines) in
  Sys.remove path;
  Alcotest.(check bool) "the solve produced spans" true (List.length t.Profile.spans > 0);
  let raw_totals = Hashtbl.create 16 in
  List.iter
    (fun (s : Profile.span) ->
      Hashtbl.replace raw_totals s.name
        (s.dur +. Option.value ~default:0. (Hashtbl.find_opt raw_totals s.name)))
    t.Profile.spans;
  List.iter
    (fun (r : Profile.agg) ->
      Helpers.close_rel ~tol:0.01
        (Printf.sprintf "aggregate total for %s matches the raw spans" r.Profile.agg_name)
        (Hashtbl.find raw_totals r.Profile.agg_name)
        r.Profile.agg_total)
    (Profile.totals t);
  let traced =
    List.fold_left (fun acc (s : Profile.span) -> acc +. s.dur) 0. (Profile.roots t)
  in
  let flame_total = List.fold_left (fun acc (_, self) -> acc +. self) 0. (Profile.collapsed t) in
  Helpers.close_rel ~tol:0.01 "collapsed stacks account for the traced time" traced
    flame_total

(* ------------------------------------------------------------- regress *)

(* a miniature BENCH_*.json in the committed shape; [wall] scales every
   wall_s, [iters] offsets the mg iteration count *)
let bench ?(wall = 1.0) ?(iters = 0) () =
  Json.Obj
    [
      ("bench", Json.String "multigrid");
      ( "artefacts",
        Json.List
          [
            Json.Obj
              [
                ("name", Json.String "solve_fv_fig5");
                ( "runs",
                  Json.List
                    [
                      Json.Obj
                        [
                          ("resolution", Json.Int 2);
                          ( "preconds",
                            Json.List
                              [
                                Json.Obj
                                  [
                                    ("name", Json.String "mg");
                                    ("iterations", Json.Int (20 + iters));
                                    ("wall_s", Json.Float (0.5 *. wall));
                                    ( "phases",
                                      Json.List
                                        [
                                          Json.Obj
                                            [
                                              ("name", Json.String "span.mg.cycle");
                                              ("sum_s", Json.Float (0.4 *. wall));
                                            ];
                                        ] );
                                  ];
                                Json.Obj
                                  [
                                    ("name", Json.String "ic0");
                                    ("iterations", Json.Int 35);
                                    ("wall_s", Json.Float (0.2 *. wall));
                                  ];
                              ] );
                        ];
                    ] );
              ];
          ] );
    ]

let test_regress_extract () =
  let ms = Regress.extract (bench ()) in
  let keys = List.map (fun (m : Regress.metric) -> (m.Regress.key, Regress.kind_name m.Regress.kind)) ms in
  Alcotest.(check bool) "mg iterations discovered" true
    (List.mem ("solve_fv_fig5/res2/mg", "iterations") keys);
  Alcotest.(check bool) "ic0 wall discovered" true
    (List.mem ("solve_fv_fig5/res2/ic0", "wall_s") keys);
  Alcotest.(check bool) "phase sums are not gated" true
    (List.for_all
       (fun (k, _) -> not (contains ~sub:"span.mg" k))
       keys)

let test_regress_identical () =
  let rows = Regress.compare_benches ~baseline:(bench ()) ~current:(bench ()) () in
  Alcotest.(check int) "four gated metrics" 4 (List.length rows);
  Alcotest.(check (list string)) "identical benches pass" [] (Regress.violations rows)

let test_regress_injected () =
  (* 2x wall regression: both wall metrics blow the default 2.0 ratio *)
  let rows =
    Regress.compare_benches ~baseline:(bench ()) ~current:(bench ~wall:2.5 ()) ()
  in
  let vs = Regress.violations rows in
  Alcotest.(check int) "both wall metrics flagged" 2 (List.length vs);
  Alcotest.(check bool) "violation names the metric and kind" true
    (List.exists
       (fun v ->
         contains ~sub:"solve_fv_fig5/res2/mg" v
         && contains ~sub:"wall_s" v)
       vs);
  (* +50% iterations on mg: exact band, one violation *)
  let rows =
    Regress.compare_benches ~baseline:(bench ()) ~current:(bench ~iters:10 ()) ()
  in
  (match Regress.violations rows with
  | [ v ] ->
    Alcotest.(check bool)
      (Printf.sprintf "violation %S names the mg iterations" v)
      true
      (contains ~sub:"solve_fv_fig5/res2/mg" v
      && contains ~sub:"iterations" v)
  | l -> Alcotest.failf "expected exactly one violation, got %d" (List.length l));
  (* an improvement passes the wall gate but trips the exact iteration band *)
  let rows =
    Regress.compare_benches ~baseline:(bench ~wall:2.5 ()) ~current:(bench ()) ()
  in
  Alcotest.(check (list string)) "getting faster is never a violation" []
    (Regress.violations rows);
  (* a metric missing from current is a violation, not a silent skip *)
  let rows =
    Regress.compare_benches ~baseline:(bench ())
      ~current:(Json.Obj [ ("bench", Json.String "multigrid") ])
      ()
  in
  Alcotest.(check int) "every baseline metric reported missing" 4
    (List.length (Regress.violations rows))

(* ------------------------------------------------------- multigrid conv *)

let test_multigrid_conv () =
  let n = 32 in
  let a =
    QCheck2.Gen.generate1 ~rand:(Random.State.make [| 2030 |]) (Helpers.gen_spd n)
  in
  (* disabled path first: no observability, no ring buffer *)
  (match Multigrid.build ~shape:[| n |] a with
  | Ok mg ->
    ignore (Multigrid.cycle mg (Array.make n 1.));
    Alcotest.(check bool) "no history with obs disabled" true (Multigrid.conv mg = None)
  | Error e -> Alcotest.fail ("multigrid build failed: " ^ e));
  Config.enable_metrics ();
  Fun.protect ~finally:Config.disable_metrics @@ fun () ->
  match Multigrid.build ~shape:[| n |] a with
  | Error e -> Alcotest.fail ("multigrid build failed: " ^ e)
  | Ok mg ->
    let r = Array.make n 1. in
    for _ = 1 to 5 do
      ignore (Multigrid.cycle mg r)
    done;
    (match Multigrid.conv mg with
    | None -> Alcotest.fail "no history with metrics enabled"
    | Some s ->
      Alcotest.(check string) "method is mg" "mg" s.History.meth;
      Alcotest.(check int) "one record per cycle" 5 s.History.total;
      Alcotest.(check (array int)) "cycles numbered in order" [| 0; 1; 2; 3; 4 |]
        s.History.iterations;
      let norm = Ttsv_numerics.Vec.norm2 r in
      Array.iter
        (fun res -> Helpers.close "each cycle saw the same residual norm" norm res)
        s.History.residuals)

let suite =
  ( "profile",
    [
      Helpers.test "history ring keeps the newest window and true total" test_history_ring;
      Helpers.test "profile analysis is exact on a synthetic trace" test_profile_synthetic;
      Helpers.test "profile rejects v1 and unknown schemas" test_profile_schemas;
      Helpers.test "profile aggregates agree with a real traced solve"
        test_profile_real_trace;
      Helpers.test "regress discovers bench metrics, skips phases" test_regress_extract;
      Helpers.test "regress passes on identical benches" test_regress_identical;
      Helpers.test "regress names injected wall and iteration regressions"
        test_regress_injected;
      Helpers.test "multigrid records one history entry per V-cycle" test_multigrid_conv;
    ] )
