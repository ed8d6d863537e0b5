(* obs_check — schema-check a ttsv JSONL trace, or sanity-check the
   phase breakdowns in BENCH_parallel.json against the measured wall
   times.

   Usage:
     obs_check validate TRACE.jsonl [MIN_DEPTH]
     obs_check bench BENCH_parallel.json
     obs_check precond BENCH_precond.json
     obs_check multigrid BENCH_multigrid.json
     obs_check idle TRACE.jsonl MAX_SECONDS
     obs_check regress BASELINE.json CURRENT.json [WALL_TOL]
     obs_check service BENCH_service.json
     obs_check hitrate TRACE.jsonl MIN_RATE

   [validate] exits 1 on the first malformed line — and, when MIN_DEPTH
   is given, when no span nests that deep.  [bench] only prints
   warnings and always exits 0: phase sums are measured under domain
   scheduling noise, so a mismatch is a signal to look at, not a CI
   failure.  [precond] is a CI gate: it exits 1 unless IC(0)-CG needs
   strictly fewer than half the Jacobi-CG iterations on every artefact —
   iteration counts are deterministic, so this check is noise-free.
   [multigrid] is the mesh-independence gate: it exits 1 when the mg-CG
   iteration count at the finest resolution of any sweep exceeds the
   file's growth_limit (default 1.5x) times the coarsest resolution's.
   [idle] is the regression gate on the pool's spin-then-park behaviour:
   it reads the [pool.idle_seconds] gauge out of the trace's summary
   lines and exits 1 when the workers burned more than MAX_SECONDS
   spinning — the failure mode of an idle loop that never parks.
   [regress] is the bench-regression gate: it compares every
   iterations/wall_s metric in CURRENT against BASELINE (exact band on
   iteration counts, WALL_TOL ratio tolerance — default 2.0 — on wall
   clocks), prints the trend table, and exits 1 naming each offending
   metric.  [service] is the serving-throughput gate on
   BENCH_service.json: every batch of >= 100 repeated-geometry requests
   must show a cache hit rate above 0.5 and a throughput at least 3x the
   batch-1 run's — the whole point of the batch engine's caches.
   [hitrate] reads the [service.cache.*] counters out of a serve trace's
   summary lines and exits 1 when the pooled hit rate is below
   MIN_RATE. *)

module Json = Ttsv_obs.Json

let fail fmt =
  Printf.ksprintf
    (fun s ->
      prerr_endline ("obs_check: " ^ s);
      exit 1)
    fmt

let warn fmt = Printf.ksprintf (fun s -> prerr_endline ("obs_check: warning: " ^ s)) fmt

let read_lines path =
  In_channel.with_open_bin path @@ fun ic ->
  let rec go acc n =
    match In_channel.input_line ic with
    | Some l when String.trim l = "" -> go acc (n + 1)
    | Some l -> go ((n, l) :: acc) (n + 1)
    | None -> List.rev acc
  in
  go [] 1

let field name j = Json.member name j

let str_field lineno name j =
  match Option.bind (field name j) Json.to_string_opt with
  | Some s -> s
  | None -> fail "line %d: missing string field %S" lineno name

let int_field lineno name j =
  match Option.bind (field name j) Json.to_int_opt with
  | Some i -> i
  | None -> fail "line %d: missing integer field %S" lineno name

let num_field lineno name j =
  match Option.bind (field name j) Json.to_float_opt with
  | Some f -> f
  | None -> fail "line %d: missing numeric field %S" lineno name

(* ---------------------------------------------------------------- validate *)

type stats = {
  mutable spans : int;
  mutable metrics : int;
  mutable summaries : int;
  mutable convs : int;
  mutable max_depth : int;
  mutable names : string list;
}

let check_span lineno j st ids parents =
  let id = int_field lineno "id" j in
  if Hashtbl.mem ids id then fail "line %d: duplicate span id %d" lineno id;
  Hashtbl.add ids id ();
  (match field "parent" j with
  | Some Json.Null | None -> ()
  | Some p -> (
    match Json.to_int_opt p with
    | Some parent -> parents := (lineno, id, parent) :: !parents
    | None -> fail "line %d: span \"parent\" must be an integer or null" lineno));
  ignore (int_field lineno "domain" j);
  let depth = int_field lineno "depth" j in
  if depth < 0 then fail "line %d: negative span depth %d" lineno depth;
  let name = str_field lineno "name" j in
  ignore (num_field lineno "start" j);
  let dur = num_field lineno "dur" j in
  if dur < 0. then fail "line %d: negative span duration %g" lineno dur;
  (match field "attrs" j with
  | None -> ()
  | Some (Json.Obj kvs) ->
    List.iter
      (fun (k, v) ->
        match v with
        | Json.String _ -> ()
        | _ -> fail "line %d: span attr %S must be a string" lineno k)
      kvs
  | Some _ -> fail "line %d: span \"attrs\" must be an object" lineno);
  st.spans <- st.spans + 1;
  st.max_depth <- Stdlib.max st.max_depth depth;
  if not (List.mem name st.names) then st.names <- name :: st.names

let check_metric lineno j st =
  ignore (str_field lineno "name" j);
  let kind = str_field lineno "kind" j in
  if not (List.mem kind [ "counter"; "gauge"; "histogram" ]) then
    fail "line %d: unknown metric kind %S" lineno kind;
  if field "value" j = None then fail "line %d: metric without a \"value\"" lineno;
  ignore (num_field lineno "t" j);
  (match field "span" j with
  | None -> ()
  | Some s ->
    if Json.to_int_opt s = None then fail "line %d: metric \"span\" must be an integer" lineno);
  st.metrics <- st.metrics + 1

let check_summary lineno j st =
  ignore (str_field lineno "name" j);
  if field "data" j = None then fail "line %d: summary without \"data\"" lineno;
  st.summaries <- st.summaries + 1

(* [conv] records are new in v2: a solver's residual history, with the
   retained window in two equal-length arrays *)
let check_conv lineno j st =
  ignore (str_field lineno "method" j);
  let total = int_field lineno "total" j in
  if total < 0 then fail "line %d: negative conv total %d" lineno total;
  let list_len what =
    match field what j with
    | Some (Json.List l) ->
      List.iter
        (fun v -> if Json.to_float_opt v = None then fail "line %d: non-numeric %s entry" lineno what)
        l;
      List.length l
    | _ -> fail "line %d: conv without %S list" lineno what
  in
  let ni = list_len "iterations" and nr = list_len "residuals" in
  if ni <> nr then
    fail "line %d: conv iterations (%d) and residuals (%d) differ in length" lineno ni nr;
  if ni > total then fail "line %d: conv retains %d entries but total is %d" lineno ni total;
  ignore (num_field lineno "t" j);
  (match field "span" j with
  | None -> ()
  | Some s ->
    if Json.to_int_opt s = None then fail "line %d: conv \"span\" must be an integer" lineno);
  st.convs <- st.convs + 1

let validate path min_depth =
  let lines = read_lines path in
  (match lines with
  | [] -> fail "%s: empty trace" path
  | (lineno, first) :: _ -> (
    match Json.parse first with
    | Error e -> fail "line %d: not valid JSON: %s" lineno e
    | Ok j ->
      if str_field lineno "type" j <> "meta" then
        fail "line %d: first line must be the meta record" lineno;
      let schema = str_field lineno "schema" j in
      if schema <> Ttsv_obs.Sink.schema then
        fail "line %d: schema %S, expected %S" lineno schema Ttsv_obs.Sink.schema;
      ignore (str_field lineno "clock_unit" j)));
  let st = { spans = 0; metrics = 0; summaries = 0; convs = 0; max_depth = 0; names = [] } in
  let ids = Hashtbl.create 64 in
  let parents = ref [] in
  List.iteri
    (fun i (lineno, line) ->
      if i > 0 then
        match Json.parse line with
        | Error e -> fail "line %d: not valid JSON: %s" lineno e
        | Ok j -> (
          match str_field lineno "type" j with
          | "span" -> check_span lineno j st ids parents
          | "metric" -> check_metric lineno j st
          | "summary" -> check_summary lineno j st
          | "conv" -> check_conv lineno j st
          | "meta" -> fail "line %d: duplicate meta record" lineno
          | other -> fail "line %d: unknown record type %S" lineno other))
    lines;
  (* spans are written at completion, so a child can precede its parent:
     resolve the references only once the whole file is read *)
  List.iter
    (fun (lineno, id, parent) ->
      if not (Hashtbl.mem ids parent) then
        fail "line %d: span %d references unknown parent %d" lineno id parent)
    !parents;
  (match min_depth with
  | Some d when st.max_depth < d ->
    fail "%s: max span depth %d, expected nesting of at least %d" path st.max_depth d
  | Some _ | None -> ());
  Printf.printf
    "%s: OK — %d spans (%d distinct names, max depth %d), %d metrics, %d convs, %d summaries\n"
    path st.spans (List.length st.names) st.max_depth st.metrics st.convs st.summaries

(* ------------------------------------------------------------------- bench *)

let bench path =
  let text = In_channel.with_open_bin path In_channel.input_all in
  let j = match Json.parse text with Ok j -> j | Error e -> fail "%s: %s" path e in
  let artefacts =
    match field "artefacts" j with
    | Some (Json.List l) -> l
    | _ -> fail "%s: no \"artefacts\" array" path
  in
  let checked = ref 0 in
  List.iter
    (fun art ->
      let name =
        match Option.bind (field "name" art) Json.to_string_opt with
        | Some n -> n
        | None -> fail "%s: artefact without a name" path
      in
      let runs =
        match field "runs" art with Some (Json.List l) -> l | _ -> [] in
      List.iter
        (fun run ->
          let domains = Option.bind (field "domains" run) Json.to_int_opt in
          let wall = Option.bind (field "wall_s" run) Json.to_float_opt in
          match (domains, wall, field "phases" run) with
          | Some domains, Some wall, Some (Json.List phases) ->
            incr checked;
            List.iter
              (fun ph ->
                let pname =
                  Option.value ~default:"?"
                    (Option.bind (field "name" ph) Json.to_string_opt)
                in
                match Option.bind (field "sum_s" ph) Json.to_float_opt with
                | None -> warn "%s domains=%d: phase %s has no sum_s" name domains pname
                | Some sum_s ->
                  (* a phase cannot burn more than the run's total core
                     capacity; 10%% slack absorbs clock skew *)
                  let capacity = wall *. float_of_int domains in
                  if sum_s > capacity *. 1.10 +. 1e-6 then
                    warn
                      "%s domains=%d: phase %s sums to %.3fs, above the %.3fs capacity of \
                       the %.3fs run"
                      name domains pname sum_s capacity wall)
              phases
          | _, _, None ->
            warn "%s: run without a phase breakdown (old BENCH_parallel.json?)" name
          | _ -> warn "%s: malformed run entry" name)
        runs)
    artefacts;
  Printf.printf "%s: checked %d runs (warnings, if any, are non-blocking)\n" path !checked

(* ----------------------------------------------------------------- precond *)

(* CI gate on BENCH_precond.json: IC(0) must earn its place at the top
   of the escalation ladder by needing < 0.5x the Jacobi-CG iterations
   on every artefact.  Iteration counts are chunk-deterministic, so the
   threshold can be hard without flaking. *)
let precond path =
  let text = In_channel.with_open_bin path In_channel.input_all in
  let j = match Json.parse text with Ok j -> j | Error e -> fail "%s: %s" path e in
  let artefacts =
    match field "artefacts" j with
    | Some (Json.List l) -> l
    | _ -> fail "%s: no \"artefacts\" array" path
  in
  if artefacts = [] then fail "%s: empty artefact list" path;
  let iterations_of precond_entry =
    match field "runs" precond_entry with
    | Some (Json.List (first_run :: _)) ->
      Option.bind (field "iterations" first_run) Json.to_int_opt
    | _ -> None
  in
  List.iter
    (fun art ->
      let name =
        match Option.bind (field "name" art) Json.to_string_opt with
        | Some n -> n
        | None -> fail "%s: artefact without a name" path
      in
      let preconds =
        match field "preconds" art with
        | Some (Json.List l) -> l
        | _ -> fail "%s: artefact %s has no \"preconds\" array" path name
      in
      let find pname =
        match
          List.find_opt
            (fun p ->
              Option.bind (field "name" p) Json.to_string_opt = Some pname)
            preconds
        with
        | Some p -> (
          match iterations_of p with
          | Some i -> i
          | None -> fail "%s: artefact %s: no iteration count for %s" path name pname)
        | None -> fail "%s: artefact %s: missing preconditioner %s" path name pname
      in
      let ic0 = find "ic0" and jacobi = find "jacobi" in
      if ic0 <= 0 || jacobi <= 0 then
        fail "%s: artefact %s: non-positive iteration counts (ic0=%d jacobi=%d)" path name
          ic0 jacobi;
      let ratio = float_of_int ic0 /. float_of_int jacobi in
      if ratio >= 0.5 then
        fail
          "%s: artefact %s: IC(0)-CG took %d iterations vs %d for Jacobi-CG (ratio %.2f \
           >= 0.50) — the strongest rung is not pulling its weight"
          path name ic0 jacobi ratio;
      Printf.printf "%s: %s ok — ic0 %d vs jacobi %d iterations (%.1fx fewer)\n" path name
        ic0 jacobi
        (float_of_int jacobi /. float_of_int ic0))
    artefacts

(* --------------------------------------------------------------- multigrid *)

(* CI gate on BENCH_multigrid.json: the V-cycle preconditioner's claim
   is mesh independence, so across each artefact's resolution sweep the
   mg iteration count at the finest grid must stay within
   [growth_limit] (the file's own, 1.5 by default) times the coarsest
   grid's.  Iteration counts are deterministic, so the gate is
   noise-free.  A sweep with a single resolution (the small CI 3-D
   case, when present) has no growth to measure and passes. *)
let multigrid path =
  let text = In_channel.with_open_bin path In_channel.input_all in
  let j = match Json.parse text with Ok j -> j | Error e -> fail "%s: %s" path e in
  let limit =
    match Option.bind (field "growth_limit" j) Json.to_float_opt with
    | Some l when l > 0. -> l
    | Some l -> fail "%s: non-positive growth_limit %g" path l
    | None -> 1.5
  in
  let artefacts =
    match field "artefacts" j with
    | Some (Json.List l) -> l
    | _ -> fail "%s: no \"artefacts\" array" path
  in
  if artefacts = [] then fail "%s: empty artefact list" path;
  List.iter
    (fun art ->
      let name =
        match Option.bind (field "name" art) Json.to_string_opt with
        | Some n -> n
        | None -> fail "%s: artefact without a name" path
      in
      let runs =
        match field "runs" art with
        | Some (Json.List (_ :: _ as l)) -> l
        | _ -> fail "%s: artefact %s has no runs" path name
      in
      let mg_iters run =
        let res =
          match Option.bind (field "resolution" run) Json.to_int_opt with
          | Some r -> r
          | None -> fail "%s: artefact %s: run without a resolution" path name
        in
        match field "preconds" run with
        | Some (Json.List ps) -> (
          match
            List.find_opt
              (fun p -> Option.bind (field "name" p) Json.to_string_opt = Some "mg")
              ps
          with
          | Some p -> (
            match Option.bind (field "iterations" p) Json.to_int_opt with
            | Some i when i > 0 -> (res, i)
            | Some i ->
              fail "%s: artefact %s resolution %d: non-positive mg iterations %d" path
                name res i
            | None ->
              fail "%s: artefact %s resolution %d: mg entry without iterations" path name
                res)
          | None ->
            fail "%s: artefact %s resolution %d: no mg preconditioner entry" path name res)
        | _ -> fail "%s: artefact %s resolution %d: no \"preconds\" array" path name res
      in
      let counts = List.map mg_iters runs in
      let res0, i0 = List.hd counts and res1, i1 = List.hd (List.rev counts) in
      let growth = float_of_int i1 /. float_of_int i0 in
      if growth > limit then
        fail
          "%s: artefact %s: mg iterations grew %d (resolution %d) -> %d (resolution %d), \
           %.2fx > %.2fx — the V-cycle has lost mesh independence"
          path name i0 res0 i1 res1 growth limit;
      Printf.printf "%s: %s ok — mg iterations %d -> %d across resolutions %d..%d (%.2fx <= %.2fx)\n"
        path name i0 i1 res0 res1 growth limit)
    artefacts

(* -------------------------------------------------------------------- idle *)

(* the workers' spin-stretch gauge, summed across summary snapshots (a
   trace normally carries exactly one).  A pool whose idle loop fails to
   park shows up here as seconds of spinning per worker per quiet gap,
   instead of the microseconds a bounded spin costs. *)
let idle path max_seconds =
  let total = ref 0. and seen = ref false in
  List.iter
    (fun (lineno, line) ->
      match Json.parse line with
      | Error _ -> () (* validate's job, not ours *)
      | Ok j ->
        if
          Option.bind (field "type" j) Json.to_string_opt = Some "summary"
          && Option.bind (field "name" j) Json.to_string_opt = Some "pool.idle_seconds"
        then (
          match Option.bind (field "data" j) (fun d -> Option.bind (field "value" d) Json.to_float_opt) with
          | Some v ->
            seen := true;
            total := !total +. v
          | None -> fail "line %d: pool.idle_seconds summary without a numeric value" lineno))
    (read_lines path);
  if not !seen then
    fail "%s: no pool.idle_seconds summary — did the run use a pool with metrics on?" path;
  if !total > max_seconds then
    fail "%s: pool workers spent %.3fs spinning idle (budget %.3fs) — the idle loop is not parking"
      path !total max_seconds;
  Printf.printf "%s: OK — pool.idle_seconds %.6fs within the %.3fs budget\n" path !total
    max_seconds

(* ----------------------------------------------------------------- regress *)

let read_bench path =
  let text = In_channel.with_open_bin path In_channel.input_all in
  match Json.parse text with Ok j -> j | Error e -> fail "%s: %s" path e

let regress ?wall_tol base_path cur_path =
  let baseline = read_bench base_path and current = read_bench cur_path in
  let rows = Ttsv_obs.Regress.compare_benches ?wall_tol ~baseline ~current () in
  if rows = [] then fail "%s: no iterations/wall_s metrics found to compare" base_path;
  Format.printf "%a@." Ttsv_obs.Regress.pp_table rows;
  match Ttsv_obs.Regress.violations rows with
  | [] ->
    Printf.printf "%s vs %s: OK — %d metrics within bands\n" cur_path base_path
      (List.length rows)
  | vs ->
    List.iter (fun v -> prerr_endline ("obs_check: regression: " ^ v)) vs;
    fail "%s vs %s: %d metric(s) regressed" cur_path base_path (List.length vs)

(* ----------------------------------------------------------------- service *)

(* CI gate on BENCH_service.json: amortization must actually pay.  Each
   artefact's batch-1 run is the no-reuse baseline; every run with >= 100
   requests over repeated geometries must clear a 0.5 cache hit rate and
   3x the baseline throughput.  Hit rates are deterministic; the
   throughput ratio compares two measurements from the same process, so
   runner speed largely cancels. *)
let service path =
  let j = read_bench path in
  let artefacts =
    match field "artefacts" j with
    | Some (Json.List (_ :: _ as l)) -> l
    | _ -> fail "%s: no \"artefacts\" array" path
  in
  List.iter
    (fun art ->
      let name =
        match Option.bind (field "name" art) Json.to_string_opt with
        | Some n -> n
        | None -> fail "%s: artefact without a name" path
      in
      let runs =
        match field "runs" art with
        | Some (Json.List (_ :: _ as l)) -> l
        | _ -> fail "%s: artefact %s has no runs" path name
      in
      let run_field run what into =
        match Option.bind (field what run) into with
        | Some v -> v
        | None -> fail "%s: artefact %s: run without %S" path name what
      in
      let batch run = run_field run "batch" Json.to_int_opt in
      let baseline =
        match List.find_opt (fun r -> batch r = 1) runs with
        | Some r -> run_field r "throughput_rps" Json.to_float_opt
        | None -> fail "%s: artefact %s: no batch-1 baseline run" path name
      in
      if baseline <= 0. then fail "%s: artefact %s: non-positive baseline throughput" path name;
      let gated = List.filter (fun r -> batch r >= 100) runs in
      if gated = [] then fail "%s: artefact %s: no run with batch >= 100 to gate" path name;
      List.iter
        (fun run ->
          let b = batch run in
          let hit_rate = run_field run "hit_rate" Json.to_float_opt in
          let throughput = run_field run "throughput_rps" Json.to_float_opt in
          if hit_rate <= 0.5 then
            fail
              "%s: artefact %s batch %d: cache hit rate %.3f <= 0.50 — repeated geometries \
               are not being served from cache"
              path name b hit_rate;
          let speedup = throughput /. baseline in
          if speedup < 3. then
            fail
              "%s: artefact %s batch %d: %.1f solves/s vs %.1f at batch 1 (%.2fx < 3x) — \
               setup amortization is not paying"
              path name b throughput baseline speedup;
          Printf.printf "%s: %s batch %d ok — hit rate %.2f, %.1f solves/s (%.1fx batch-1)\n"
            path name b hit_rate throughput speedup)
        gated)
    artefacts

(* ----------------------------------------------------------------- hitrate *)

(* pooled hit rate of the service caches, from the trace's summary
   snapshot: counters named service.cache.<level>.hits|misses *)
let hitrate path min_rate =
  let hits = ref 0. and misses = ref 0. in
  let ends_with suffix s =
    let ls = String.length suffix and l = String.length s in
    l >= ls && String.sub s (l - ls) ls = suffix
  in
  List.iter
    (fun (lineno, line) ->
      match Json.parse line with
      | Error _ -> () (* validate's job, not ours *)
      | Ok j ->
        if Option.bind (field "type" j) Json.to_string_opt = Some "summary" then (
          match Option.bind (field "name" j) Json.to_string_opt with
          | Some name
            when String.length name > 14 && String.sub name 0 14 = "service.cache." -> (
            let value () =
              match
                Option.bind (field "data" j) (fun d ->
                    Option.bind (field "value" d) Json.to_float_opt)
              with
              | Some v -> v
              | None -> fail "line %d: %s summary without a numeric value" lineno name
            in
            if ends_with ".hits" name then hits := !hits +. value ()
            else if ends_with ".misses" name then misses := !misses +. value ())
          | _ -> ()))
    (read_lines path);
  let total = !hits +. !misses in
  if total = 0. then
    fail "%s: no service.cache.* counters — did the serve run have --metrics on?" path;
  let rate = !hits /. total in
  if rate < min_rate then
    fail "%s: cache hit rate %.3f below the %.3f floor (%.0f hits / %.0f lookups)" path rate
      min_rate !hits total;
  Printf.printf "%s: OK — cache hit rate %.3f (%.0f hits / %.0f lookups) >= %.3f\n" path rate
    !hits total min_rate

let usage () =
  fail
    "usage: obs_check validate TRACE.jsonl [MIN_DEPTH] | obs_check bench FILE | obs_check \
     precond FILE | obs_check multigrid FILE | obs_check idle TRACE.jsonl MAX_SECONDS | \
     obs_check regress BASELINE.json CURRENT.json [WALL_TOL] | obs_check service FILE | \
     obs_check hitrate TRACE.jsonl MIN_RATE"

let () =
  match Array.to_list Sys.argv with
  | [ _; "validate"; path ] -> validate path None
  | [ _; "validate"; path; depth ] -> (
    match int_of_string_opt depth with
    | Some d -> validate path (Some d)
    | None -> usage ())
  | [ _; "bench"; path ] -> bench path
  | [ _; "precond"; path ] -> precond path
  | [ _; "multigrid"; path ] -> multigrid path
  | [ _; "idle"; path; budget ] -> (
    match float_of_string_opt budget with
    | Some b when b >= 0. -> idle path b
    | _ -> usage ())
  | [ _; "regress"; base; cur ] -> regress base cur
  | [ _; "regress"; base; cur; tol ] -> (
    match float_of_string_opt tol with
    | Some t when t >= 1. -> regress ~wall_tol:t base cur
    | _ -> usage ())
  | [ _; "service"; path ] -> service path
  | [ _; "hitrate"; path; min_rate ] -> (
    match float_of_string_opt min_rate with
    | Some r when r >= 0. && r <= 1. -> hitrate path r
    | _ -> usage ())
  | _ -> usage ()
