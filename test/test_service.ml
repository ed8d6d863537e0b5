(* Tests for the solver service: wire protocol round-trips, typed error
   responses for malformed input, the bounded LRU cache, and the engine's
   cache/warm-start behaviour end to end. *)

module Json = Ttsv_obs.Json
module P = Ttsv_service.Protocol
module Cache = Ttsv_service.Cache
module Engine = Ttsv_service.Engine
open Helpers

(* ---------------------------------------------------------------- protocol *)

let solve_request ?(id = "q") ?(radius_um = 5.) ?(resolution = 1) ?(tol = 1e-10) ?deadline_s
    () =
  {
    P.id;
    kind =
      P.Solve
        {
          geometry = { P.default_geometry with radius_um };
          resolution;
          tol;
          deadline_s;
        };
  }

let sweep_request ?(id = "s") () =
  {
    P.id;
    kind =
      P.Sweep
        {
          base = { geometry = P.default_geometry; resolution = 1; tol = 1e-10; deadline_s = None };
          param = P.Radius;
          from_um = 3.;
          to_um = 6.;
          points = 4;
        };
  }

let chip_request ?(id = "c") () =
  {
    P.id;
    kind =
      P.Chip_alloc
        {
          chip_geometry = P.default_geometry;
          grid = 4;
          size_mm = 2.;
          power_w = 4.;
          hotspot_w = 2.;
          budget_k = Some 30.;
          candidates = 1;
        };
  }

(* an id that is not UTF-8: surrogateescape must carry it byte-exact *)
let raw_id = "r\xc3\xa9q-\xff\x01/\"\\"

let roundtrips req =
  let s1 = Json.to_string (P.request_to_json req) in
  match P.parse_request s1 with
  | Error (_, e) -> Alcotest.failf "decode failed: %s" e.P.message
  | Ok req' ->
    let s2 = Json.to_string (P.request_to_json req') in
    Alcotest.(check string) "byte-exact re-encoding" s1 s2

let parse_error line =
  match P.parse_request line with
  | Ok _ -> Alcotest.fail "expected a decode error"
  | Error (id, e) -> (id, e)

let protocol_tests =
  [
    test "solve request round-trips byte-exact" (fun () ->
        roundtrips (solve_request ~id:"solve-1" ~radius_um:7.25 ());
        roundtrips (solve_request ~id:"with-deadline" ~deadline_s:1.5 ()));
    test "sweep request round-trips byte-exact" (fun () -> roundtrips (sweep_request ()));
    test "chip_alloc request round-trips byte-exact" (fun () -> roundtrips (chip_request ()));
    test "non-UTF-8 id survives encode/decode byte-exact" (fun () ->
        let req = solve_request ~id:raw_id () in
        roundtrips req;
        match P.parse_request (Json.to_string (P.request_to_json req)) with
        | Ok r -> Alcotest.(check string) "id bytes" raw_id r.P.id
        | Error _ -> Alcotest.fail "decode failed");
    test "omitted fields take the documented defaults" (fun () ->
        let line = {|{"schema":"ttsv.request.v1","id":"d","kind":"solve"}|} in
        match P.parse_request line with
        | Error (_, e) -> Alcotest.failf "decode failed: %s" e.P.message
        | Ok { P.kind = P.Solve s; _ } ->
          Alcotest.(check bool) "default geometry" true (s.P.geometry = P.default_geometry);
          Alcotest.(check int) "default resolution" 1 s.P.resolution;
          close "default tol" 1e-10 s.P.tol;
          Alcotest.(check bool) "no deadline" true (s.P.deadline_s = None)
        | Ok _ -> Alcotest.fail "wrong kind");
    test "a line that is not JSON maps to bad_json without an id" (fun () ->
        let id, e = parse_error "this is not json" in
        Alcotest.(check bool) "no id" true (id = None);
        Alcotest.(check string) "code" "bad_json" (P.error_code_name e.P.code));
    test "a non-object request maps to bad_request" (fun () ->
        let _, e = parse_error "[1,2,3]" in
        Alcotest.(check string) "code" "bad_request" (P.error_code_name e.P.code));
    test "a wrong schema still routes the id back" (fun () ->
        let id, e = parse_error {|{"schema":"ttsv.request.v2","id":"x","kind":"solve"}|} in
        Alcotest.(check bool) "id recovered" true (id = Some "x");
        Alcotest.(check string) "code" "bad_request" (P.error_code_name e.P.code));
    test "a typo'd field value is rejected, not defaulted" (fun () ->
        let id, e =
          parse_error {|{"schema":"ttsv.request.v1","id":"t","kind":"solve","tol":"tight"}|}
        in
        Alcotest.(check bool) "id recovered" true (id = Some "t");
        Alcotest.(check string) "code" "bad_request" (P.error_code_name e.P.code));
    test "an unknown kind is rejected by name" (fun () ->
        let contains s affix =
          let ls = String.length s and la = String.length affix in
          let rec at i = i + la <= ls && (String.sub s i la = affix || at (i + 1)) in
          at 0
        in
        let _, e = parse_error {|{"schema":"ttsv.request.v1","id":"k","kind":"melt"}|} in
        Alcotest.(check bool) "names the kind" true (contains e.P.message "melt"));
    test "error responses carry the typed code on the wire" (fun () ->
        let r =
          { P.request_id = None; result = Error (P.error P.Bad_json "nope") }
        in
        let s = P.response_to_string r in
        match Json.parse s with
        | Error m -> Alcotest.failf "response not JSON: %s" m
        | Ok j ->
          Alcotest.(check bool) "status error" true
            (Option.bind (Json.member "status" j) Json.to_string_opt = Some "error");
          Alcotest.(check bool) "null id" true (Json.member "id" j = Some Json.Null));
    test "tol and deadline do not perturb the cache key" (fun () ->
        let s r tol deadline_s =
          { P.geometry = { P.default_geometry with radius_um = r };
            resolution = 1; tol; deadline_s }
        in
        Alcotest.(check string) "same operator, same key" (P.solve_key (s 5. 1e-10 None))
          (P.solve_key (s 5. 1e-6 (Some 9.)));
        Alcotest.(check bool) "different radius, different key" true
          (P.solve_key (s 5. 1e-10 None) <> P.solve_key (s 6. 1e-10 None)));
  ]

(* ------------------------------------------------------------------- cache *)

let cache_tests =
  [
    test "lru evicts the least recently used entry" (fun () ->
        let c = Cache.create ~name:"t-lru" ~capacity:2 () in
        Cache.add c "a" 1;
        Cache.add c "b" 2;
        ignore (Cache.find c "a");
        Cache.add c "c" 3;
        Alcotest.(check int) "bounded" 2 (Cache.length c);
        Alcotest.(check bool) "a kept (recently used)" true (Cache.find c "a" = Some 1);
        Alcotest.(check bool) "b evicted" true (Cache.find c "b" = None);
        Alcotest.(check int) "one eviction" 1 (Cache.evictions c));
    test "hit and miss counters add up" (fun () ->
        let c = Cache.create ~name:"t-count" ~capacity:4 () in
        Cache.add c "k" 0;
        ignore (Cache.find c "k");
        ignore (Cache.find c "k");
        ignore (Cache.find c "absent");
        Alcotest.(check int) "hits" 2 (Cache.hits c);
        Alcotest.(check int) "misses" 1 (Cache.misses c);
        close "rate" (2. /. 3.) (Cache.hit_rate c));
    test "find_newest returns the freshest match" (fun () ->
        let c = Cache.create ~name:"t-newest" ~capacity:4 () in
        Cache.add c "old" 1;
        Cache.add c "young" 2;
        Cache.add c "odd" 3;
        Alcotest.(check bool) "freshest even" true
          (Cache.find_newest c (fun v -> v mod 2 = 0) = Some 2);
        Alcotest.(check bool) "no match" true (Cache.find_newest c (fun v -> v > 9) = None));
    test "overwriting a key does not grow the cache" (fun () ->
        let c = Cache.create ~name:"t-over" ~capacity:2 () in
        Cache.add c "k" 1;
        Cache.add c "k" 2;
        Alcotest.(check int) "one entry" 1 (Cache.length c);
        Alcotest.(check bool) "last write wins" true (Cache.find c "k" = Some 2));
    test "capacity below one is rejected" (fun () ->
        check_raises_invalid "capacity" (fun () ->
            ignore (Cache.create ~name:"t-bad" ~capacity:0 ())));
  ]

(* ------------------------------------------------------------------ engine *)

let expect_solved = function
  | { P.result = Ok (P.Solved s); _ } -> s
  | { P.result = Ok _; _ } -> Alcotest.fail "expected a solve payload"
  | { P.result = Error e; _ } -> Alcotest.failf "unexpected error: %s" e.P.message

let expect_error = function
  | { P.result = Error e; _ } -> e
  | { P.result = Ok _; _ } -> Alcotest.fail "expected an error response"

let engine_tests =
  [
    test "a repeated geometry is served from every cache level" (fun () ->
        let engine = Engine.create () in
        let req = solve_request ~id:"warm" () in
        let cold = expect_solved (Engine.handle engine req) in
        Alcotest.(check bool) "first solve is cold" true (cold.P.cache.P.warm = P.Cold);
        Alcotest.(check bool) "cold operator miss" true (not cold.P.cache.P.operator_hit);
        let warm = expect_solved (Engine.handle engine req) in
        Alcotest.(check bool) "operator hit" true warm.P.cache.P.operator_hit;
        Alcotest.(check bool) "precond hit" false warm.P.cache.P.precond_hit;
        Alcotest.(check bool) "exact warm start" true (warm.P.cache.P.warm = P.Warm_exact);
        Alcotest.(check int) "zero iterations" 0 warm.P.iterations;
        close "same answer" cold.P.max_rise_k warm.P.max_rise_k);
    test "an exact hit at res 3 runs 0 iterations and allocates <= 2,000 minor words"
      (fun () ->
        (* every per-element pass of an exact hit (the input scans, the
           converged-start residual, the max) is an index loop, so no
           float is boxed: this hit (7,650 cells, 37,820 nonzeros)
           allocated 153,042 minor words when those passes went through
           Array combinators, and 904 as loops *)
        let engine = Engine.create () in
        let req id = solve_request ~id ~resolution:3 () in
        List.iter
          (fun id -> ignore (expect_solved (Engine.handle engine (req id))))
          [ "cold"; "r1"; "r2" ];
        let before = Gc.minor_words () in
        let response = Engine.handle engine (req "hit") in
        let words = Gc.minor_words () -. before in
        let hit = expect_solved response in
        Alcotest.(check bool) "exact warm start" true (hit.P.cache.P.warm = P.Warm_exact);
        Alcotest.(check int) "zero iterations" 0 hit.P.iterations;
        Alcotest.(check bool) (Printf.sprintf "%.0f minor words <= 2000" words) true (words <= 2000.));
    test "a repeated exact hit at res 3 puts fewer than n words on the major heap" (fun () ->
        (* the converged start answers with the cached field itself: a
           copy of it (7,650 cells) went straight to the major heap on
           every hit *)
        let engine = Engine.create () in
        let req id = solve_request ~id ~resolution:3 () in
        List.iter
          (fun id -> ignore (expect_solved (Engine.handle engine (req id))))
          [ "cold"; "r1"; "r2" ];
        let _, promoted0, major0 = Gc.counters () in
        let hit = expect_solved (Engine.handle engine (req "hit")) in
        let _, promoted1, major1 = Gc.counters () in
        let direct = major1 -. major0 -. (promoted1 -. promoted0) in
        Alcotest.(check bool) "exact warm start" true (hit.P.cache.P.warm = P.Warm_exact);
        let n = 7650 in
        Alcotest.(check bool)
          (Printf.sprintf "%.0f words straight to the major heap < n = %d" direct n)
          true
          (direct < float_of_int n));
    test "a repeat at a tighter tol iterates from the cached field to the new tol" (fun () ->
        let engine = Engine.create () in
        ignore (expect_solved (Engine.handle engine (solve_request ())));
        let tight = expect_solved (Engine.handle engine (solve_request ~tol:1e-12 ())) in
        Alcotest.(check bool) "exact warm start" true (tight.P.cache.P.warm = P.Warm_exact);
        Alcotest.(check bool)
          (Printf.sprintf "%d iterations" tight.P.iterations)
          true (tight.P.iterations > 0);
        Alcotest.(check bool)
          (Printf.sprintf "residual %.3g meets 1e-12" tight.P.residual)
          true (tight.P.residual <= 1e-12));
    test "a repeat under an already-spent deadline is answered at 0 iterations" (fun () ->
        let engine = Engine.create () in
        let cold = expect_solved (Engine.handle engine (solve_request ())) in
        let late = expect_solved (Engine.handle engine (solve_request ~deadline_s:1e-9 ())) in
        Alcotest.(check bool) "exact warm start" true (late.P.cache.P.warm = P.Warm_exact);
        Alcotest.(check int) "zero iterations" 0 late.P.iterations;
        close "same answer" cold.P.max_rise_k late.P.max_rise_k);
    test "a nearby geometry warm-starts from the freshest solution" (fun () ->
        let engine = Engine.create () in
        let a = expect_solved (Engine.handle engine (solve_request ~radius_um:5. ())) in
        let b = expect_solved (Engine.handle engine (solve_request ~radius_um:5.5 ())) in
        Alcotest.(check bool) "different operator" true (not b.P.cache.P.operator_hit);
        Alcotest.(check bool) "neighbour warm start" true
          (b.P.cache.P.warm = P.Warm_neighbour);
        Alcotest.(check bool) "fewer iterations than the cold solve" true
          (b.P.iterations <= a.P.iterations));
    test "a repeated sweep is answered entirely from cache" (fun () ->
        let engine = Engine.create () in
        let req = sweep_request () in
        let first =
          match (Engine.handle engine req).P.result with
          | Ok (P.Swept s) -> s
          | _ -> Alcotest.fail "expected a sweep payload"
        in
        Alcotest.(check int) "all points solved" 4 (List.length first.P.sweep_points);
        let again =
          match (Engine.handle engine req).P.result with
          | Ok (P.Swept s) -> s
          | _ -> Alcotest.fail "expected a sweep payload"
        in
        Alcotest.(check int) "every point warm" 4 again.P.warm_starts;
        Alcotest.(check int) "no iterations left to do" 0 again.P.sweep_iterations;
        List.iter2
          (fun (p : P.sweep_point) (q : P.sweep_point) ->
            close "same rise" p.P.point_rise_k q.P.point_rise_k)
          first.P.sweep_points again.P.sweep_points);
    test "invalid geometry maps to a typed invalid_geometry error" (fun () ->
        let engine = Engine.create () in
        let e = expect_error (Engine.handle engine (solve_request ~radius_um:(-2.) ())) in
        Alcotest.(check string) "code" "invalid_geometry" (P.error_code_name e.P.code));
    test "an impossible deadline maps to deadline_exceeded with diagnostics" (fun () ->
        let engine = Engine.create () in
        let e =
          expect_error (Engine.handle engine (solve_request ~deadline_s:1e-9 ()))
        in
        Alcotest.(check string) "code" "deadline_exceeded" (P.error_code_name e.P.code);
        Alcotest.(check bool) "diagnostics attached" true (e.P.diagnostics <> None));
    test "out-of-range resolution is rejected, never meshed" (fun () ->
        let engine = Engine.create () in
        let e = expect_error (Engine.handle engine (solve_request ~resolution:99 ())) in
        Alcotest.(check string) "code" "bad_request" (P.error_code_name e.P.code));
    test "handle_batch preserves request order" (fun () ->
        let engine = Engine.create () in
        let reqs =
          Array.init 6 (fun i ->
              solve_request ~id:(Printf.sprintf "b%d" i)
                ~radius_um:(float_of_int (3 + (i mod 3)))
                ())
        in
        let rs = Engine.handle_batch engine reqs in
        Alcotest.(check int) "one response per request" 6 (Array.length rs);
        Array.iteri
          (fun i r ->
            Alcotest.(check bool)
              (Printf.sprintf "response %d routed" i)
              true
              (r.P.request_id = Some (Printf.sprintf "b%d" i)))
          rs);
  ]

(* ------------------------------------------------------------------- serve *)

(* run [Engine.serve] over literal input lines through temp files and
   hand back the response lines *)
let serve_lines ?batch input_lines =
  let in_path = Filename.temp_file "ttsv_serve" ".in" in
  let out_path = Filename.temp_file "ttsv_serve" ".out" in
  Fun.protect
    ~finally:(fun () ->
      Sys.remove in_path;
      Sys.remove out_path)
    (fun () ->
      let oc = open_out in_path in
      List.iter (fun l -> output_string oc (l ^ "\n")) input_lines;
      close_out oc;
      let engine = Engine.create () in
      let ic = open_in in_path and oc = open_out out_path in
      let answered =
        Fun.protect
          ~finally:(fun () ->
            close_in ic;
            close_out oc)
          (fun () -> Engine.serve ?batch engine ic oc)
      in
      let ic = open_in out_path in
      let lines = ref [] in
      (try
         while true do
           lines := input_line ic :: !lines
         done
       with End_of_file -> close_in ic);
      (answered, List.rev !lines))

let response_field line name =
  match Json.parse line with
  | Error m -> Alcotest.failf "response line is not JSON: %s" m
  | Ok j -> Json.member name j

let serve_tests =
  [
    test "serve answers every line in order, malformed lines included" (fun () ->
        let good id = Json.to_string (P.request_to_json (solve_request ~id ())) in
        let answered, lines =
          serve_lines ~batch:2
            [
              good "q0";
              "definitely not json";
              {|{"schema":"ttsv.request.v2","id":"q2","kind":"solve"}|};
              good "q3";
            ]
        in
        Alcotest.(check int) "answered all" 4 answered;
        Alcotest.(check int) "one response per line" 4 (List.length lines);
        let statuses =
          List.map
            (fun l -> Option.get (Option.bind (response_field l "status") Json.to_string_opt))
            lines
        in
        Alcotest.(check (list string)) "statuses in input order"
          [ "ok"; "error"; "error"; "ok" ] statuses;
        let ids = List.map (fun l -> response_field l "id") lines in
        Alcotest.(check bool) "ids routed in order" true
          (ids
          = [
              Some (Json.String "q0");
              Some Json.Null;
              Some (Json.String "q2");
              Some (Json.String "q3");
            ]));
    test "serve ignores blank lines and stops at end of input" (fun () ->
        let answered, lines =
          serve_lines [ ""; Json.to_string (P.request_to_json (solve_request ~id:"only" ())); "" ]
        in
        Alcotest.(check int) "one request" 1 answered;
        Alcotest.(check int) "one response" 1 (List.length lines));
    test "serve rejects a non-positive batch size" (fun () ->
        check_raises_invalid "batch" (fun () -> ignore (serve_lines ~batch:0 [])));
  ]

(* The key property is its own list, run after the engine and serve
   cases, so that every earlier case keeps its index
   (`test service 18` is the exact hit at res 3). *)
let key_tests =
  [
    (* fields from a small pool so that equal and unequal pairs both
       occur: -0. against 0., neighbours one ulp apart, a subnormal *)
    qtest ~count:500 "two keys are equal exactly when all eight fields are bit-equal"
      QCheck2.Gen.(
        let field =
          oneofl [ 0.; -0.; 1.; Float.succ 1.; 5.; 4.9999999999999991; 45.; 5e-324 ]
        in
        let solve =
          let* fields = array_size (return 7) field in
          let* resolution = int_range 1 3 in
          let* tol = oneofl [ 1e-10; 1e-6 ] in
          return
            {
              P.geometry =
                {
                  P.radius_um = fields.(0);
                  liner_um = fields.(1);
                  ild_um = fields.(2);
                  bond_um = fields.(3);
                  tsi_um = fields.(4);
                  tsi1_um = fields.(5);
                  lext_um = fields.(6);
                };
              resolution;
              tol;
              deadline_s = None;
            }
        in
        let* a = solve in
        let* same = bool in
        if same then return (a, { a with P.tol = 1e-8 }) else map (fun b -> (a, b)) solve)
      (fun (a, b) ->
        let bits (s : P.solve) =
          let g = s.P.geometry in
          List.map Int64.bits_of_float
            [ g.radius_um; g.liner_um; g.ild_um; g.bond_um; g.tsi_um; g.tsi1_um; g.lext_um ]
          @ [ Int64.of_int s.P.resolution ]
        in
        String.equal (P.solve_key a) (P.solve_key b) = (bits a = bits b));
  ]

let suite =
  ( "service",
    protocol_tests @ cache_tests @ engine_tests @ serve_tests @ key_tests )
