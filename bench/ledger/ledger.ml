(* The benchmark ledger: one seeded workload per process, every metric
   printed by name with its unit and sample count, in-run answer checks,
   and a traced replay for the per-layer metrics.

     ledger.exe run --workload W --seed S --seconds T --trace 0|1
                    [--out FILE] [--smoke] [--spec BENCHMARK.json]
     ledger.exe compare A/ B/ [--spec BENCHMARK.json]

   [run] prints "name value unit n=samples" lines, then, as its last
   line, one JSON object with the correctness verdict and the metrics
   BENCHMARK.json declares (end_to_end untraced, per_layer traced).
   [--out] writes every metric of the run as JSON for [compare].  The
   exit code is 1 when an answer check fails or a declared metric could
   not be measured; a traced run must measure the end_to_end metrics
   too. *)

open Workloads
module Samples = Layers.Samples
module Json = Ttsv_obs.Json
module Profile = Ttsv_obs.Profile
module Gcstats = Ttsv_obs.Gcstats

let fail fmt = Printf.ksprintf (fun msg -> prerr_endline ("ledger: " ^ msg); exit 2) fmt

(* ---------------------------------------------------------------- stats *)

(* linear interpolation between closest ranks; NaN on no samples *)
let percentile q xs =
  match Array.of_list (List.sort compare xs) with
  | [||] -> Float.nan
  | a ->
    let h = q *. float_of_int (Array.length a - 1) in
    let lo = int_of_float h in
    let hi = min (Array.length a - 1) (lo + 1) in
    a.(lo) +. ((h -. float_of_int lo) *. (a.(hi) -. a.(lo)))

let median = percentile 0.5
let sum = List.fold_left ( +. ) 0.

(* ----------------------------------------------------------------- spec *)

type declared = { d_name : string; d_unit : string; lower : bool; bound : float option }
type spec = { end_to_end : declared list; per_layer : declared list }

let read_spec path =
  let json =
    match In_channel.with_open_text path In_channel.input_all with
    | s -> ( match Json.parse s with Ok j -> j | Error e -> fail "%s: %s" path e)
    | exception Sys_error e -> fail "%s" e
  in
  let str k j = Option.bind (Json.member k j) Json.to_string_opt in
  let metrics key =
    match Json.member key json with
    | Some (Json.List ms) ->
      List.map
        (fun m ->
          match (str "name" m, str "unit" m, str "better" m) with
          | Some d_name, Some d_unit, Some better ->
            {
              d_name;
              d_unit;
              lower = better = "lower";
              bound = Option.bind (Json.member "bound" m) Json.to_float_opt;
            }
          | _ -> fail "%s: malformed entry in %s" path key)
        ms
    | _ -> fail "%s: no %s list" path key
  in
  { end_to_end = metrics "end_to_end"; per_layer = metrics "per_layer" }

(* --------------------------------------------------------------- ledger *)

type metric = {
  name : string;
  value : float;
  unit : string;
  n : int;  (** samples behind the value *)
  exact : bool;  (** a deterministic count, compared for equality *)
}

let metric ?(exact = false) name unit n value = { name; value; unit; n; exact }

let p50_metric layer key name unit scale =
  let xs = Samples.get layer key in
  metric name unit (List.length xs) (median xs *. scale)

(* for calls shorter than the span clock's 1 µs tick, where only the
   mean of many spans resolves the cost *)
let mean_metric layer key name unit scale =
  let xs = Samples.get layer key in
  metric name unit (List.length xs) (sum xs /. float_of_int (List.length xs) *. scale)

(* ----------------------------------------------------------- host speed *)

(* The host is shared, and its speed drifts in spells of seconds to
   minutes: the same op reads up to ~1.5x slower in one, sometimes for a
   whole run, which no statistic over one run's ops can undo.  So every
   timed op and setup follows a run of [reference], a fixed computation
   that calls nothing in the library and allocates nothing on the OCaml
   heap: 30 relaxation sweeps of a five-point stencil on a 64 x 64 grid,
   then one streaming update of a pair of 4 MiB arrays.  Every time the
   ledger reports is scaled to the calm host: by [calm_reference_s] over
   the reference's duration measured next to it.  Over ten seeds this
   took the spread of a run's median op from 9-32 % to 2-5 %. *)

(* the reference's duration on a calm host: the 1st percentile of its
   ~43k readings over 60 runs on a 2-vCPU Xeon VM *)
let calm_reference_s = 1.2e-3

let reference =
  let f64 n = Bigarray.(Array1.create float64 c_layout n) in
  let n = 64 and m = 1 lsl 19 in
  let u = f64 (n * n) and v = f64 (n * n) and a = f64 m and b = f64 m in
  List.iter (fun (x, c) -> Bigarray.Array1.fill x c) [ (u, 1.); (v, 0.); (a, 1.); (b, 2.) ];
  fun () ->
    for _ = 1 to 30 do
      for i = 1 to n - 2 do
        for j = 1 to n - 2 do
          let k = (i * n) + j in
          v.{k} <- (0.25 *. (u.{k - 1} +. u.{k + 1} +. u.{k - n} +. u.{k + n})) +. 1e-3
        done
      done;
      Bigarray.Array1.blit v u
    done;
    for i = 0 to m - 1 do
      a.{i} <- a.{i} +. (1e-9 *. b.{i})
    done

let reference_s () = snd (time reference)

(* [lat] at the calm host's speed: each duration against the median
   reference of the eleven ops around it *)
let at_calm_speed ~refs lat =
  let r = Array.of_list refs in
  List.mapi
    (fun i x ->
      let lo = max 0 (i - 5) and hi = min (Array.length r - 1) (i + 5) in
      x *. calm_reference_s /. median (Array.to_list (Array.sub r lo (hi - lo + 1))))
    lat

(* ----------------------------------------------------------------- loop *)

type pass = {
  lat : float list;  (** seconds per op, op order *)
  refs : float list;  (** seconds: the reference run just before each op *)
  heap : float list;  (** MB: the major heap's size at the end of every major GC cycle and of every op *)
  alloc_words : float;  (** allocated by the ops *)
  majors : int;  (** major collections that ended during an op *)
  ops : int;
  samples : Samples.t;  (** every op's samples *)
  det : Samples.t;  (** the first cycle's samples: deterministic counts *)
  failures : string list;
}

let calm (p : pass) = at_calm_speed ~refs:p.refs p.lat
let mb words = float_of_int (words * (Sys.word_size / 8)) /. 1048576.

(* A closed loop with one client: op [i + 1] starts when op [i] and its
   answer checks are done.  Runs whole invocations ([w.session] ops),
   the first cycle of inputs always, and starts another invocation only
   if it would end within [seconds] taking as long as the last one did;
   never more than [max_ops] ops.  Every invocation starts from a
   collected heap, off the clock, as a fresh process would.  The major
   heap's size is read at the end of every major cycle during an op (a
   GC alarm) and of every op; allocation and major collections are
   counted over the ops alone. *)
let loop (w : Workloads.t) ~traced ~seconds ~max_ops =
  let samples = Samples.create () and det = Samples.create () in
  let lat = ref [] and refs = ref [] and heap = ref [] and failures = ref [] in
  let alloc_words = ref 0. and majors = ref 0 in
  let in_op = ref false in
  let read_heap () = heap := mb (Gc.quick_stat ()).heap_words :: !heap in
  let alarm = Gc.create_alarm (fun () -> if !in_op then read_heap ()) in
  Fun.protect ~finally:(fun () -> Gc.delete_alarm alarm) @@ fun () ->
  let t_end = now () +. seconds and i = ref 0 in
  let started = ref 0. and last = ref 0. in
  let another () =
    !i mod w.session <> 0
    || !i < w.cycle
    || now () +. !last <= t_end
  in
  while !i < max_ops && another () do
    if !i mod w.session = 0 then begin
      Gc.full_major ();
      started := now ()
    end;
    refs := reference_s () :: !refs;
    let words0 = Gcstats.allocated_words () and majors0 = (Gc.quick_stat ()).major_collections in
    in_op := true;
    let o, dt =
      time (fun () ->
          match Span.with_ ~name:"bench.op" (fun () -> w.run ~traced !i) with
          | o -> o
          | exception e -> failed ("op raised " ^ Printexc.to_string e))
    in
    in_op := false;
    let words1 = Gcstats.allocated_words () in
    majors := !majors + (Gc.quick_stat ()).major_collections - majors0;
    alloc_words := !alloc_words +. words1 -. words0;
    read_heap ();
    lat := dt :: !lat;
    Samples.add_all samples o.samples;
    if !i < w.cycle then Samples.add_all det o.samples;
    (match o.verify () with
    | [] -> ()
    | errs -> failures := Printf.sprintf "op %d: %s" !i (String.concat "; " errs) :: !failures);
    if traced && !i mod 10 = 0 then Samples.add_all samples (o.shadow ());
    incr i;
    if !i mod w.session = 0 then last := now () -. !started
  done;
  {
    lat = List.rev !lat;
    refs = List.rev !refs;
    heap = !heap;
    alloc_words = !alloc_words;
    majors = !majors;
    ops = !i;
    samples;
    det;
    failures = List.rev !failures;
  }

(* [n] complete setups in a row — inputs, pool, one untimed warm-up op
   (none on a smoke run) — each timed from a collected heap and closed
   before the next starts; the last is returned open, with every
   setup's time at the calm host's speed (against the median of five
   references run just before it) and the warm-up ops' failed checks. *)
let setups name ~smoke ~seed n =
  let rec go k times failures =
    Gc.full_major ();
    let r = median (List.init 5 (fun _ -> reference_s ())) in
    let (w, warm), dt =
      time (fun () ->
          let w = Workloads.setup name ~smoke ~seed in
          (w, if smoke then Fun.const [] else (w.run ~traced:false 0).verify))
    in
    let times = (dt *. calm_reference_s /. r) :: times and failures = failures @ warm () in
    if k = n then (w, times, failures)
    else begin
      w.close ();
      go (k + 1) times failures
    end
  in
  go 1 [] []

(* ------------------------------------------------------------ metrics *)

(* Latency and throughput come from each input's median op at the calm
   host's speed.  Every input recurs ~7-30 times over a run, spread
   across it, so one input's slow draw of the host does not decide the
   figure. *)
let end_to_end ~setups ~(pass : pass) ~cycle =
  let inputs = min cycle pass.ops and lat = calm pass in
  let per_input = List.init inputs (fun k -> median (List.filteri (fun i _ -> i mod cycle = k) lat)) in
  let ms q = percentile q per_input *. 1e3 in
  [
    metric "setup_s" "s" (List.length setups) (median setups);
    metric "ops_per_s" "1/s" inputs (float_of_int inputs /. sum per_input);
    metric "op_p50_ms" "ms" inputs (ms 0.5);
    metric "op_p90_ms" "ms" inputs (ms 0.9);
    metric "heap_p90_mb" "MB" (List.length pass.heap) (percentile 0.9 pass.heap);
  ]

(* the first cycle's counts: iterations, ladder attempts and rungs,
   cache classes and hits — identical on every run of one seed *)
let counts det =
  Hashtbl.fold (fun k xs acc -> (k, xs) :: acc) det []
  |> List.filter (fun (k, _) -> not (String.ends_with ~suffix:"_s" k))
  |> List.sort compare
  |> List.map (fun (k, xs) -> metric ~exact:true k "count" (List.length xs) (sum xs))

(* share of the ladder's iterations spent in the rung that answered *)
let useful_ratio det =
  match Samples.get det "robust.deciding_iterations" with
  | [] -> []
  | xs ->
    [
      metric ~exact:true "robust.useful_iter_ratio" "ratio" (List.length xs)
        (sum xs /. Samples.sum det "krylov.iterations");
    ]

let cache_ratios (pass : pass) =
  List.filter_map
    (fun level ->
      let key = "service.cache." ^ level ^ ".hits" in
      match Samples.get pass.samples key with
      | [] -> None
      | xs ->
        Some
          (metric ("service.cache." ^ level ^ ".hit_ratio") "ratio" (List.length xs)
             (sum xs /. float_of_int (List.length xs))))
    [ "operator"; "precond"; "solution" ]

let ms_per_iter layer =
  let count k = Samples.sum layer ("robust.deciding." ^ k) in
  let setup =
    if count "cg-mg" > 0. && count "cg-mg" >= count "cg-ic0" then
      median (Samples.get layer "precond.mg.setup_s")
    else if count "cg-ic0" > 0. then median (Samples.get layer "precond.ic0.setup_s")
    else 0.
  in
  let xs = Samples.get layer "robust.deciding_s" in
  metric "krylov.ms_per_iter" "ms" (List.length xs)
    ((median xs -. setup) /. median (Samples.get layer "robust.deciding_iterations") *. 1e3)

let per_layer ~layer ~det ~(untraced : pass) ~overhead ~unattributed =
  let p = p50_metric layer in
  let det_sum k = metric ~exact:true k "count" (List.length (Samples.get det k)) (Samples.sum det k) in
  [
    mean_metric layer "bench.core.model_a" "core.model_a_us" "us" 1e6;
    mean_metric layer "bench.core.model_b100" "core.model_b100_us" "us" 1e6;
    mean_metric layer "bench.core.model_1d" "core.model_1d_us" "us" 1e6;
    p "sweep.pool_speedup" "sweep.pool_speedup" "ratio" 1.;
    p "parallel.dispatch_us" "parallel.dispatch_us" "us" 1.;
    p "bench.fem.mesh" "fem.mesh_ms" "ms" 1e3;
    p "bench.fem.assemble" "fem.assemble_ms" "ms" 1e3;
    p "fem.cells" "fem.cells" "count" 1.;
    p "fem.nnz" "fem.nnz" "count" 1.;
    p "bench.robust.ladder" "robust.ladder_ms" "ms" 1e3;
    det_sum "robust.attempts";
    det_sum "krylov.iterations";
    ms_per_iter layer;
    p "precond.mg.setup_s" "precond.mg.setup_ms" "ms" 1e3;
    p "precond.ic0.setup_s" "precond.ic0.setup_ms" "ms" 1e3;
    p "precond.mg.levels" "precond.mg.levels" "count" 1.;
    p "sparse.matvec_ns_per_nnz" "sparse.matvec_ns_per_nnz" "ns" 1.;
    p "sparse.matvec_gbps_computed" "sparse.matvec_gbps_computed" "GB/s" 1.;
    p "precond.ic0.apply_ns_per_nnz" "precond.ic0.apply_ns_per_nnz" "ns" 1.;
    p "precond.mg.apply_ns_per_nnz" "precond.mg.apply_ns_per_nnz" "ns" 1.;
    p "vec.dot_ns_per_elt" "vec.dot_ns_per_elt" "ns" 1.;
    p "vec.axpy_ns_per_elt" "vec.axpy_ns_per_elt" "ns" 1.;
    p "bench.service.decode" "service.decode_us" "us" 1e6;
    p "bench.service.encode" "service.encode_us" "us" 1e6;
    p "service.handle.cold_s" "service.handle_cold_ms" "ms" 1e3;
    p "service.handle.exact_s" "service.handle_exact_ms" "ms" 1e3;
    p "service.handle.neighbour_s" "service.handle_neighbour_ms" "ms" 1e3;
    metric "gc.alloc_mb_per_op" "MB" untraced.ops
      (mb 1 *. untraced.alloc_words /. float_of_int untraced.ops);
    metric "gc.major_collections_per_op" "count" untraced.ops
      (float_of_int untraced.majors /. float_of_int untraced.ops);
    metric "obs.trace_overhead_pct" "%" (fst overhead) (snd overhead);
    metric "bench.unattributed_pct" "%" (fst unattributed) (snd unattributed);
  ]

(* the service's own spans, where the workload serves (serve_stream) *)
let service_spans layer =
  List.filter_map
    (fun (key, name) ->
      if Samples.mem layer key then Some (p50_metric layer key name "ms" 1e3) else None)
    [
      ("service.assemble", "service.assemble_ms");
      ("service.precond_setup", "service.precond_setup_ms");
      ("service.solve", "service.solve_ms");
    ]

(* --------------------------------------------------------------- traced *)

let profile_into layer path =
  match Profile.load path with
  | Error e -> fail "trace %s: %s" path e
  | Ok t ->
    List.iter (fun (s : Profile.span) -> Samples.add layer s.name s.dur) t.spans;
    let op = List.find_opt (fun a -> a.Profile.agg_name = "bench.op") (Profile.totals t) in
    match op with
    | Some a when a.agg_total > 0. -> (a.agg_count, 100. *. a.agg_self /. a.agg_total)
    | _ -> (0, Float.nan)

let trace_path out name =
  match out with
  | Some f -> f ^ ".trace.jsonl"
  | None ->
    (try Sys.mkdir ".ledger" 0o755 with Sys_error _ -> ());
    Filename.concat ".ledger" (name ^ ".trace.jsonl")

(* ----------------------------------------------------------------- run *)

let json_of_metrics ~full ms =
  Json.Obj
    (List.map
       (fun m ->
         ( m.name,
           Json.Obj
             ([ ("value", Json.Float m.value); ("unit", Json.String m.unit) ]
             @ if full then [ ("n", Json.Int m.n); ("exact", Json.Bool m.exact) ] else []) ))
       ms)

let run ~name ~seed ~seconds ~traced ~smoke ~out ~spec =
  (* [setup_s] is the median of 7 setups: 4 before the timed loop and 3
     after it, so that it does not hang on the host's speed at one
     moment *)
  let w, before, setup_failures = setups name ~smoke ~seed (if smoke then 1 else 4) in
  let max_ops = if smoke then min w.cycle 6 else max_int in
  let untraced_s = if traced then seconds /. 2. else seconds in
  Gc.full_major ();
  let pass = loop w ~traced:false ~seconds:untraced_s ~max_ops in
  let replay, layer_metrics, trace_failures =
    if not traced then (None, [], [])
    else begin
      let path = trace_path out name in
      Ttsv_obs.Config.enable_trace path;
      (* the first cycle again: every input once, in the same order *)
      let replay = loop w ~traced:true ~seconds:0. ~max_ops:(min pass.ops w.cycle) in
      Ttsv_obs.Config.disable_trace ();
      let layer = Hashtbl.copy replay.samples in
      let unattributed = profile_into layer path in
      let det = Hashtbl.copy replay.det in
      w.close ();
      Layers.run w ~layer ~det;
      (* against each replayed input's median untraced op, not its first
         one alone, which a slow spell may cover *)
      let lat = calm pass in
      let untraced k = median (List.filteri (fun i _ -> i mod w.cycle = k) lat) in
      let same = List.init replay.ops untraced in
      let overhead = (replay.ops, 100. *. ((sum (calm replay) /. sum same) -. 1.)) in
      let mismatch =
        List.filter_map
          (fun a ->
            match List.find_opt (fun b -> b.name = a.name) (counts replay.det) with
            | Some b when b.value = a.value -> None
            | b ->
              Some
                (Printf.sprintf "traced %s = %s, untraced %g" a.name
                   (match b with Some b -> string_of_float b.value | None -> "absent")
                   a.value))
          (counts pass.det)
      in
      ( Some replay,
        per_layer ~layer ~det ~untraced:pass ~overhead ~unattributed
        @ service_spans layer,
        replay.failures @ mismatch
        @
        if snd unattributed > 1. then
          [ Printf.sprintf "bench.op self time is %.2f %% of op time (> 1 %%)" (snd unattributed) ]
        else [] )
    end
  in
  if not traced then w.close ();
  let failures = setup_failures @ pass.failures @ trace_failures @ w.after () in
  let more_setups, after_failures =
    if smoke then ([], [])
    else
      let w, times, failures = setups name ~smoke ~seed 3 in
      w.close ();
      (times, failures)
  in
  let failures = failures @ after_failures in
  let attempted = pass.ops + Option.fold ~none:0 ~some:(fun r -> r.ops) replay in
  let failed = min attempted (List.length failures) in
  let all =
    end_to_end ~setups:(before @ more_setups) ~pass ~cycle:w.cycle
    @ cache_ratios pass
    @ [ metric ~exact:true "fail_ratio" "ratio" attempted (float_of_int failed /. float_of_int attempted) ]
    @ counts pass.det @ useful_ratio pass.det @ layer_metrics
    (* a count both the untraced pass and the traced replay report (and
       the run checked equal) is listed once *)
    |> List.fold_left (fun acc m -> if List.exists (fun a -> a.name = m.name) acc then acc else m :: acc) []
    |> List.rev
  in
  List.iter (fun m -> Printf.printf "%s %.6g %s n=%d\n" m.name m.value m.unit m.n) all;
  List.iter (fun f -> Printf.eprintf "FAILED %s\n" f) failures;
  (* a traced run reports the per-layer metrics, and must have measured
     the end-to-end ones as well *)
  let measured, missing =
    List.partition_map
      (fun d ->
        match List.find_opt (fun m -> m.name = d.d_name) all with
        | Some m when Float.is_finite m.value && m.unit = d.d_unit -> Left m
        | _ -> Right d.d_name)
      (spec.end_to_end @ if traced then spec.per_layer else [])
  in
  let reported =
    List.filter
      (fun m ->
        List.exists (fun d -> d.d_name = m.name) (if traced then spec.per_layer else spec.end_to_end))
      measured
  in
  List.iter (fun n -> Printf.eprintf "MISSING %s\n" n) missing;
  let correct = failures = [] && missing = [] in
  Option.iter
    (fun path ->
      let doc =
        Json.Obj
          [
            ("schema", Json.String "ttsv.ledger.v1");
            ("workload", Json.String name);
            ("seed", Json.Int seed);
            ("seconds", Json.Float seconds);
            ("traced", Json.Bool traced);
            ("smoke", Json.Bool smoke);
            ("correct", Json.Bool correct);
            ("attempted", Json.Int attempted);
            ("failed", Json.Int failed);
            ("failures", Json.List (List.map (fun f -> Json.String f) failures));
            ("missing", Json.List (List.map (fun f -> Json.String f) missing));
            ("metrics", json_of_metrics ~full:true all);
            ("op_ms", Json.List (List.map (fun s -> Json.Float (s *. 1e3)) pass.lat));
            ("reference_ms", Json.List (List.map (fun s -> Json.Float (s *. 1e3)) pass.refs));
          ]
      in
      Out_channel.with_open_text path (fun oc ->
          output_string oc (Json.to_string doc);
          output_char oc '\n'))
    out;
  print_endline
    (Json.to_string
       (Json.Obj
          [
            ("correct", Json.Bool correct);
            ("attempted", Json.Int attempted);
            ("failed", Json.Int failed);
            ("metrics", json_of_metrics ~full:false reported);
          ]));
  if not correct then exit 1

(* ------------------------------------------------------------- compare *)

(* one metric of one ledger file *)
type sample = { seed : int; value : float; exact : bool }

let read_ledger path =
  let j =
    match Json.parse (In_channel.with_open_text path In_channel.input_all) with
    | Ok j -> j
    | Error e -> fail "%s: %s" path e
  in
  let traced = Json.member "traced" j = Some (Json.Bool true) in
  let seed = Option.value (Option.bind (Json.member "seed" j) Json.to_int_opt) ~default:0 in
  match (Option.bind (Json.member "workload" j) Json.to_string_opt, Json.member "metrics" j) with
  | Some w, Some (Json.Obj ms) ->
    let mode = if traced then w ^ " (traced)" else w in
    List.filter_map
      (fun (name, m) ->
        Option.map
          (fun value ->
            let exact = Json.member "exact" m = Some (Json.Bool true) in
            ((mode, name), { seed; value; exact }))
          (Option.bind (Json.member "value" m) Json.to_float_opt))
      ms
  | _ -> fail "%s: not a ledger file" path

let ledgers dir =
  Sys.readdir dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".json")
  |> List.sort compare
  |> List.concat_map (fun f -> read_ledger (Filename.concat dir f))

let spread xs =
  let m = median xs in
  if List.length xs < 2 || m = 0. then 0.
  else Float.abs ((percentile 0.75 xs -. percentile 0.25 xs) /. m)

(* One row per (workload, metric): both medians, their ratio and a
   verdict.  A deterministic count must be equal in every file of the
   same seed.  A metric with a bound is worse or better when its median
   moves past the bound, and unresolved when A's own run-to-run spread
   exceeds the bound (unless every B run beats every A run).  Unbounded
   metrics are shown only. *)
let compare_dirs ~spec a b =
  let la = ledgers a and lb = ledgers b in
  let keys = List.sort_uniq compare (List.map fst la @ List.map fst lb) in
  let values l k = List.filter_map (fun (k', m) -> if k' = k then Some m else None) l in
  let bad = ref 0 in
  Printf.printf "%-28s %-28s %14s %14s %8s  %s\n" "workload" "metric" "A median" "B median" "B/A"
    "verdict";
  List.iter
    (fun ((mode, name) as k) ->
      let va = values la k and vb = values lb k in
      let xa = List.map (fun m -> m.value) va and xb = List.map (fun m -> m.value) vb in
      let ma = median xa and mb = median xb in
      let same_per_seed () =
        List.for_all (fun x -> List.for_all (fun y -> x.seed <> y.seed || x.value = y.value) (va @ vb)) va
      in
      let verdict =
        if xa = [] || xb = [] then "missing"
        else if List.exists (fun m -> m.exact) (va @ vb) then
          if same_per_seed () then "same" else "differs"
        else
          match List.find_opt (fun d -> d.d_name = name) spec.end_to_end with
          | Some { bound = Some bound; lower; _ } when not (String.ends_with ~suffix:"(traced)" mode)
            ->
            let worse = (if lower then mb -. ma else ma -. mb) /. Float.abs ma in
            let beats x y = if lower then x < y else x > y in
            let all_better = List.for_all (fun y -> List.for_all (fun x -> beats y x) xa) xb in
            if spread xa > bound && not all_better then "unresolved"
            else if worse > bound then "worse"
            else if worse < -.bound then "better"
            else "unchanged"
          | _ -> "-"
      in
      if List.mem verdict [ "worse"; "differs"; "missing" ] then incr bad;
      let ratio = if ma = 0. then "-" else Printf.sprintf "%.4f" (mb /. ma) in
      Printf.printf "%-28s %-28s %14.6g %14.6g %8s  %s\n" mode name ma mb ratio verdict)
    keys;
  if !bad > 0 then exit 1

(* ------------------------------------------------------------------ cli *)

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let rec opts acc = function
    | "--smoke" :: rest -> opts (("--smoke", "1") :: acc) rest
    | k :: v :: rest when String.starts_with ~prefix:"--" k -> opts ((k, v) :: acc) rest
    | [ k ] when String.starts_with ~prefix:"--" k -> fail "%s needs a value" k
    | x :: rest ->
      let o, p = opts acc rest in
      (o, x :: p)
    | [] -> (acc, [])
  in
  let cmd, rest = match args with c :: r -> (c, r) | [] -> fail "usage: ledger.exe run|compare ..." in
  let o, positional = opts [] rest in
  let get k = List.assoc_opt k o in
  let spec () = read_spec (Option.value (get "--spec") ~default:"BENCHMARK.json") in
  match (cmd, positional) with
  | "run", [] ->
    let name = match get "--workload" with Some w -> w | None -> fail "--workload is required" in
    if not (List.mem_assoc name Workloads.all) then
      fail "unknown workload %s (known: %s)" name (String.concat ", " (List.map fst Workloads.all));
    let num k default conv =
      match get k with
      | None -> default
      | Some v -> ( match conv v with Some x -> x | None -> fail "%s %s is not a number" k v)
    in
    let traced =
      match get "--trace" with
      | None | Some "0" -> false
      | Some "1" -> true
      | Some v -> fail "--trace takes 0 or 1, not %s" v
    in
    run ~name ~seed:(num "--seed" 1 int_of_string_opt)
      ~seconds:(num "--seconds" 25. float_of_string_opt)
      ~traced ~smoke:(get "--smoke" <> None) ~out:(get "--out") ~spec:(spec ())
  | "compare", [ a; b ] -> compare_dirs ~spec:(spec ()) a b
  | _ -> fail "usage: ledger.exe run ...|compare A B"
