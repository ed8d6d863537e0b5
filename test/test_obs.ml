(* Observability layer: span nesting and per-domain isolation under the
   pool, histogram bucket geometry, JSONL round-tripping, the
   disabled-path cost contract, and the solve.iterations cross-check
   against the solver diagnostics. *)

module Json = Ttsv_obs.Json
module Span = Ttsv_obs.Span
module Metrics = Ttsv_obs.Metrics
module Sink = Ttsv_obs.Sink
module Config = Ttsv_obs.Config
module Pool = Ttsv_parallel.Pool
module Robust = Ttsv_robust.Robust
module Diagnostics = Ttsv_robust.Diagnostics

(* ------------------------------------------------------------- harness *)

let read_trace path =
  In_channel.with_open_bin path In_channel.input_all
  |> String.split_on_char '\n'
  |> List.filter (fun l -> String.trim l <> "")
  |> List.map (fun l ->
         match Json.parse l with
         | Ok j -> j
         | Error e -> Alcotest.failf "unparseable JSONL line %S: %s" l e)

(* run [f] with metrics + a fresh temp trace enabled, both switched back
   off afterwards, and return the parsed trace lines *)
let traced f =
  let path = Filename.temp_file "ttsv_obs" ".jsonl" in
  Config.enable_metrics ();
  Metrics.reset ();
  Config.enable_trace path;
  Fun.protect
    ~finally:(fun () ->
      Config.disable_trace ();
      Config.disable_metrics ())
    f;
  let lines = read_trace path in
  Sys.remove path;
  lines

let get name j =
  match Json.member name j with
  | Some v -> v
  | None -> Alcotest.failf "record without field %S" name

let get_int name j =
  match Json.to_int_opt (get name j) with
  | Some i -> i
  | None -> Alcotest.failf "field %S is not an integer" name

let get_str name j =
  match Json.to_string_opt (get name j) with
  | Some s -> s
  | None -> Alcotest.failf "field %S is not a string" name

let records kind lines =
  List.filter (fun j -> Json.member "type" j = Some (Json.String kind)) lines

let span_named name spans =
  match List.find_opt (fun j -> get_str "name" j = name) spans with
  | Some s -> s
  | None -> Alcotest.failf "no span named %S in the trace" name

(* ------------------------------------------------------------- nesting *)

let test_nesting () =
  let lines =
    traced (fun () ->
        Span.with_ ~name:"outer" (fun () ->
            Span.with_ ~name:"inner" ~attrs:[ ("k", "v") ] (fun () ->
                ignore (Sys.opaque_identity (1 + 1)))))
  in
  (match lines with
  | meta :: _ ->
    Alcotest.(check string) "meta first" "meta" (get_str "type" meta);
    Alcotest.(check string) "schema" Sink.schema (get_str "schema" meta)
  | [] -> Alcotest.fail "empty trace");
  let spans = records "span" lines in
  let outer = span_named "outer" spans and inner = span_named "inner" spans in
  Alcotest.(check int) "outer at depth 0" 0 (get_int "depth" outer);
  Alcotest.(check int) "inner at depth 1" 1 (get_int "depth" inner);
  Alcotest.(check bool) "outer has no parent" true (get "parent" outer = Json.Null);
  Alcotest.(check (option int))
    "inner's parent is outer" (Some (get_int "id" outer))
    (Json.to_int_opt (get "parent" inner));
  Alcotest.(check (option string))
    "inner kept its attrs" (Some "v")
    (Option.bind (Json.member "attrs" inner) (fun a ->
         Option.bind (Json.member "k" a) Json.to_string_opt));
  (* spans are emitted as they close: the inner one must come first *)
  let order = List.map (fun j -> get_str "name" j) spans in
  Alcotest.(check (list string)) "close order" [ "inner"; "outer" ] order

let test_domain_isolation () =
  let leaves = 4096 in
  let lines =
    traced (fun () ->
        Pool.with_pool ~domains:4 (fun pool ->
            ignore
              (Pool.map_array pool
                 (fun i ->
                   Span.with_ ~name:"leaf" (fun () ->
                       (* enough work that every worker takes some chunks *)
                       let acc = ref 0. in
                       for k = 1 to 200 do
                         acc := !acc +. (1. /. float_of_int (i + k))
                       done;
                       !acc))
                 (Array.init leaves Fun.id))))
  in
  let spans = records "span" lines in
  let domain_of = Hashtbl.create 256 in
  List.iter (fun j -> Hashtbl.replace domain_of (get_int "id" j) (get_int "domain" j)) spans;
  (* a span's parent always lives on the same domain: the DLS stacks
     never leak frames across workers *)
  List.iter
    (fun j ->
      match Json.to_int_opt (get "parent" j) with
      | None -> ()
      | Some p -> (
        match Hashtbl.find_opt domain_of p with
        | None -> Alcotest.failf "span %d has an unknown parent %d" (get_int "id" j) p
        | Some pd ->
          Alcotest.(check int)
            (Printf.sprintf "span %d and its parent share a domain" (get_int "id" j))
            pd (get_int "domain" j)))
    spans;
  let leaf_spans = List.filter (fun j -> get_str "name" j = "leaf") spans in
  Alcotest.(check int) "every task produced a leaf span" leaves (List.length leaf_spans);
  let domains =
    List.sort_uniq compare (List.map (fun j -> get_int "domain" j) leaf_spans)
  in
  Alcotest.(check bool)
    (Printf.sprintf "leaves ran on several domains (saw %d)" (List.length domains))
    true
    (List.length domains >= 2)

(* ----------------------------------------------------------- histogram *)

let test_bucket_geometry () =
  let module H = Metrics.Histogram in
  Alcotest.(check int) "zero lands in bucket 0" 0 (H.bucket_index 0.);
  Alcotest.(check int) "negatives land in bucket 0" 0 (H.bucket_index (-3.));
  Alcotest.(check int) "nan lands in bucket 0" 0 (H.bucket_index Float.nan);
  Alcotest.(check int) "overflow lands in the last bucket" (H.nbuckets - 1)
    (H.bucket_index Float.infinity);
  for i = 1 to H.nbuckets - 2 do
    Helpers.close
      (Printf.sprintf "bucket %d upper = bucket %d lower" i (i + 1))
      (H.bucket_upper i)
      (H.bucket_lower (i + 1))
  done

let prop_bucket_contains v =
  let module H = Metrics.Histogram in
  let i = H.bucket_index v in
  H.bucket_lower i <= v && v < H.bucket_upper i

(* ------------------------------------------------------- JSON round-trip *)

(* dyadic-rational floats are exactly representable, so a faithful
   printer/parser pair must reproduce them bit-for-bit *)
let gen_json =
  let open QCheck2.Gen in
  let key = string_size ~gen:(char_range 'a' 'z') (int_range 1 6) in
  let leaf =
    oneof
      [
        return Json.Null;
        map (fun b -> Json.Bool b) bool;
        map (fun i -> Json.Int i) (int_range (-1_000_000) 1_000_000);
        map
          (fun (m, e) -> Json.Float (float_of_int m /. float_of_int (1 lsl e)))
          (pair (int_range (-4000) 4000) (int_range 0 10));
        map (fun s -> Json.String s) (string_size ~gen:printable (int_range 0 10));
      ]
  in
  sized
  @@ fix (fun self n ->
         if n <= 0 then leaf
         else
           oneof
             [
               leaf;
               map (fun l -> Json.List l) (list_size (int_range 0 4) (self (n / 2)));
               map (fun kvs -> Json.Obj kvs) (list_size (int_range 0 4) (pair key (self (n / 2))));
             ])

let prop_json_roundtrip j =
  Json.parse (Json.to_string j) = Ok j && Json.parse (Json.to_string_pretty j) = Ok j

(* the bench files' layout: a container of scalars stays on one line,
   compact; any other container puts each child on its own line *)
let test_json_pretty_layout () =
  let row i = Json.Obj [ ("name", Json.String "r"); ("i", Json.Int i) ] in
  Alcotest.(check string)
    "scalar-only object" "{\"name\":\"r\",\"i\":1}\n" (Json.to_string_pretty (row 1));
  Alcotest.(check string)
    "list of objects"
    (String.concat "\n"
       [
         "{";
         "  \"runs\": [";
         "    {\"name\":\"r\",\"i\":1},";
         "    {\"name\":\"r\",\"i\":2}";
         "  ],";
         "  \"xs\": [1.5,null]";
         "}\n";
       ])
    (Json.to_string_pretty
       (Json.Obj
          [ ("runs", Json.List [ row 1; row 2 ]); ("xs", Json.List [ Json.Float 1.5; Json.Null ]) ]))

(* arbitrary byte strings — including invalid UTF-8 — must survive the
   surrogateescape emitter byte-for-byte, and the wire form must be pure
   ASCII so a JSONL trace never carries raw control or 8-bit bytes *)
let prop_string_bytes_roundtrip s =
  let wire = Json.to_string (Json.String s) in
  String.for_all (fun c -> Char.code c >= 0x20 && Char.code c < 0x80) wire
  && Json.parse wire = Ok (Json.String s)

let gen_bytes =
  QCheck2.Gen.(string_size ~gen:(char_range '\000' '\255') (int_range 0 40))

(* ---------------------------------------------------------- percentiles *)

let test_percentiles () =
  Config.enable_metrics ();
  Fun.protect ~finally:Config.disable_metrics @@ fun () ->
  let r = Metrics.create () in
  let h = Metrics.Histogram.make ~registry:r "lat" in
  (* constant stream: every percentile collapses onto the single
     occupied bucket, clamped to the observed min/max *)
  for _ = 1 to 100 do
    Metrics.Histogram.observe h 4.0
  done;
  (match Metrics.snapshot ~registry:r () with
  | [ (_, Metrics.H s) ] ->
    Helpers.close "constant p50" 4.0 (Metrics.percentile s 0.50);
    Helpers.close "constant p99" 4.0 (Metrics.percentile s 0.99)
  | _ -> Alcotest.fail "expected exactly the one histogram");
  (* bimodal: 90 fast samples at 1.0, 10 slow at 1024.0 — p50 sits in
     the fast bucket, p99 in the slow one (log2 buckets are exact on
     powers of two, so bucket bounds pin the answer tightly) *)
  let r = Metrics.create () in
  let h = Metrics.Histogram.make ~registry:r "lat2" in
  for _ = 1 to 90 do
    Metrics.Histogram.observe h 1.0
  done;
  for _ = 1 to 10 do
    Metrics.Histogram.observe h 1024.0
  done;
  (match Metrics.snapshot ~registry:r () with
  | [ (_, Metrics.H s) ] ->
    let p50 = Metrics.percentile s 0.50 and p99 = Metrics.percentile s 0.99 in
    Alcotest.(check bool)
      (Printf.sprintf "p50 %g in the fast mode" p50)
      true
      (p50 >= 1.0 && p50 < 2.0);
    Alcotest.(check bool)
      (Printf.sprintf "p99 %g in the slow mode" p99)
      true
      (p99 >= 512. && p99 <= 1024.);
    Alcotest.(check bool) "p50 <= p99" true (p50 <= p99)
  | _ -> Alcotest.fail "expected exactly the one histogram");
  (* empty histogram: NaN, mirroring the null min/max in the JSON *)
  let r = Metrics.create () in
  ignore (Metrics.Histogram.make ~registry:r "lat3");
  match Metrics.snapshot ~registry:r () with
  | [ (_, Metrics.H s) ] ->
    Alcotest.(check bool) "empty p50 is NaN" true (Float.is_nan (Metrics.percentile s 0.5))
  | _ -> Alcotest.fail "expected exactly the one histogram"

(* -------------------------------------------------------- disabled path *)

let test_disabled_path () =
  Config.disable_trace ();
  Config.disable_metrics ();
  Metrics.reset ();
  let before = Sink.write_count () in
  let c = Metrics.Counter.make "test.disabled.counter" in
  let h = Metrics.Histogram.make "test.disabled.hist" in
  let result =
    Span.with_ ~name:"off" (fun () ->
        Metrics.Counter.incr c;
        Metrics.Histogram.observe h 1.0;
        (* sink calls without an open trace are silently dropped *)
        Sink.metric ~kind:"counter" ~name:"off.metric" (Json.Int 1);
        41 + 1)
  in
  Alcotest.(check int) "with_ still returns the result" 42 result;
  Alcotest.(check int) "no JSONL lines were written" before (Sink.write_count ());
  Alcotest.(check int) "counter stayed at 0" 0 (Metrics.Counter.value c);
  Alcotest.(check int) "histogram stayed empty" 0 (Metrics.Histogram.count h);
  Alcotest.(check (option int)) "no open span" None (Span.current ());
  Alcotest.(check int) "depth back to 0" 0 (Span.depth ())

(* --------------------------------------------------- concurrent emission *)

(* four domains hammering the sink concurrently: the line mutex must
   keep every JSONL line intact (read_trace fails the test on any
   unparseable line), and no event may be lost *)
let test_sink_concurrent () =
  let per_task = 8 and tasks = 256 in
  let lines =
    traced (fun () ->
        Pool.with_pool ~domains:4 (fun pool ->
            ignore
              (Pool.map_array pool
                 (fun i ->
                   Span.with_ ~name:"emit" (fun () ->
                       for k = 1 to per_task do
                         Sink.metric ~kind:"counter"
                           ~name:(Printf.sprintf "conc.%d" (i mod 7))
                           (Json.Int k)
                       done))
                 (Array.init tasks Fun.id))))
  in
  let metrics =
    List.filter
      (fun j ->
        match Json.member "name" j with
        | Some (Json.String s) -> String.length s >= 5 && String.sub s 0 5 = "conc."
        | _ -> false)
      (records "metric" lines)
  in
  Alcotest.(check int) "every metric event survived" (per_task * tasks) (List.length metrics);
  Alcotest.(check int) "every span closed into the trace" tasks
    (List.length (List.filter (fun j -> get_str "name" j = "emit") (records "span" lines)))

(* ---------------------------------------------------- convergence events *)

let test_conv_events () =
  let n = 40 in
  let a =
    QCheck2.Gen.generate1 ~rand:(Random.State.make [| 2027 |]) (Helpers.gen_spd n)
  in
  let b = Array.make n 1. in
  let diag = ref None in
  let lines =
    traced (fun () ->
        match Robust.solve a b with
        | Ok (_, d) -> diag := Some d
        | Error _ -> Alcotest.fail "Robust.solve failed on an SPD system")
  in
  let d = match !diag with Some d -> d | None -> Alcotest.fail "no diagnostics" in
  let trace = d.Diagnostics.trace in
  let kept = Array.length trace in
  Alcotest.(check bool) "history is non-empty" true (kept > 0);
  (* the curve ends at least as low as it starts on an SPD solve *)
  Alcotest.(check bool) "residual did not grow overall" true
    (trace.(kept - 1) <= trace.(0));
  match records "conv" lines with
  | [ ev ] ->
    Alcotest.(check string) "trace event names cg" "cg" (get_str "method" ev);
    Alcotest.(check int)
      "trace event total is the diagnostics' history length" kept (get_int "total" ev);
    (match get "residuals" ev with
    | Json.List l when List.length l = kept ->
      List.iteri
        (fun i r ->
          Alcotest.(check (float 0.))
            (Printf.sprintf "residual %d matches the diagnostics" i)
            trace.(i)
            (match Json.to_float_opt r with Some x -> x | None -> Float.nan))
        l
    | _ -> Alcotest.failf "conv event does not carry all %d residuals" kept);
    (* the event is tagged with the enclosing rung span *)
    let span_id =
      match Json.to_int_opt (get "span" ev) with
      | Some id -> id
      | None -> Alcotest.fail "conv event without a span tag"
    in
    let rung =
      List.find_opt (fun j -> get_int "id" j = span_id) (records "span" lines)
    in
    (match rung with
    | Some s ->
      let name = get_str "name" s in
      Alcotest.(check bool)
        (Printf.sprintf "conv span %S is a robust rung" name)
        true
        (String.length name > 7 && String.sub name 0 7 = "robust.")
    | None -> Alcotest.failf "conv event points at unknown span %d" span_id)
  | l -> Alcotest.failf "expected one conv event, got %d" (List.length l)

(* --------------------------------------------------------- GC telemetry *)

let test_gc_telemetry () =
  Config.enable_metrics ();
  Metrics.reset ();
  Fun.protect ~finally:Config.disable_metrics @@ fun () ->
  let snap_val name snap =
    match List.assoc_opt name snap with
    | Some (Metrics.G v) -> v
    | _ -> Alcotest.failf "gauge %S missing from the snapshot" name
  in
  Ttsv_obs.Gcstats.sample ();
  let snap = Metrics.snapshot () in
  Alcotest.(check bool) "gc.allocated_words is positive" true
    (snap_val "gc.allocated_words" snap > 0.);
  Alcotest.(check bool) "gc.heap_words is positive" true (snap_val "gc.heap_words" snap > 0.);
  (* spans record their allocation delta into the alloc.* histogram.
     Each span below builds a live list of 1.2M words, more than the
     minor heap holds, so collections land inside it and promote most
     of the list: the delta must still be the words allocated, within
     1 %, every time *)
  let build n =
    (* a tuple and a cons cell per element: 6 words each *)
    let rec go acc i = if i = n then acc else go ((i, i) :: acc) (i + 1) in
    go [] 0
  in
  let words = 1_200_000. and spans = 5 in
  for _ = 1 to spans do
    Span.with_ ~name:"alloctest" (fun () -> ignore (Sys.opaque_identity (build 200_000)))
  done;
  match List.assoc_opt "alloc.alloctest" (Metrics.snapshot ()) with
  | Some (Metrics.H h) ->
    Alcotest.(check int) "one alloc observation per span" spans h.Metrics.count;
    let within v = Float.abs (v -. words) <= 0.01 *. words in
    Alcotest.(check bool)
      (Printf.sprintf "alloc deltas in [%.0f, %.0f] are within 1%% of %.0f words"
         h.Metrics.min h.Metrics.max words)
      true
      (within h.Metrics.min && within h.Metrics.max)
  | _ -> Alcotest.fail "no alloc.alloctest histogram in the registry"

(* -------------------------------------------- solve.iterations crosscheck *)

let test_solve_iterations () =
  let n = 40 in
  let a =
    QCheck2.Gen.generate1 ~rand:(Random.State.make [| 2026 |]) (Helpers.gen_spd n)
  in
  let b = Array.make n 1. in
  let expected = ref (-1) in
  let lines =
    traced (fun () ->
        match Robust.solve a b with
        | Ok (_, d) -> expected := d.Diagnostics.iterations
        | Error _ -> Alcotest.fail "Robust.solve failed on an SPD system")
  in
  Alcotest.(check bool) "the solve converged" true (!expected >= 0);
  let events =
    List.filter (fun j -> get_str "name" j = "solve.iterations") (records "metric" lines)
  in
  (match events with
  | [ e ] ->
    Alcotest.(check (option int))
      "trace event carries the diagnostics total" (Some !expected)
      (Json.to_int_opt (get "value" e))
  | l -> Alcotest.failf "expected exactly one solve.iterations event, got %d" (List.length l));
  (* the registry counter accumulated the same total (interning returns
     the instrument the solver wrote to) *)
  let counter = Metrics.Counter.make "solve.iterations" in
  Alcotest.(check int) "registry counter agrees" !expected (Metrics.Counter.value counter)

let suite =
  ( "obs",
    [
      Helpers.test "span nesting round-trips through the trace" test_nesting;
      Helpers.test "per-domain span isolation under a 4-domain pool" test_domain_isolation;
      Helpers.test "histogram bucket geometry" test_bucket_geometry;
      Helpers.qtest "histogram bucket bounds contain the sample"
        QCheck2.Gen.(float_range 1e-12 1e12)
        prop_bucket_contains;
      Helpers.qtest "JSON values survive to_string/parse and to_string_pretty/parse" gen_json
        prop_json_roundtrip;
      Helpers.test "to_string_pretty breaks only containers of containers"
        test_json_pretty_layout;
      Helpers.qtest ~count:500 "arbitrary byte strings round-trip through pure-ASCII JSON"
        gen_bytes prop_string_bytes_roundtrip;
      Helpers.test "histogram percentiles from log2 buckets" test_percentiles;
      Helpers.test "4-domain concurrent emission keeps every line parseable"
        test_sink_concurrent;
      Helpers.test "conv events mirror the diagnostics history" test_conv_events;
      Helpers.test "GC gauges and per-span allocation deltas" test_gc_telemetry;
      Helpers.test "disabled path writes nothing and counts nothing" test_disabled_path;
      Helpers.test "solve.iterations event matches the diagnostics" test_solve_iterations;
    ] )
