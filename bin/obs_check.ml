(* obs_check — CI gates over files that another process wrote: a ttsv
   JSONL trace, or a BENCH_*.json against its committed baseline.

   Usage:
     obs_check validate TRACE.jsonl [MIN_DEPTH]
     obs_check idle TRACE.jsonl MAX_SECONDS
     obs_check hitrate TRACE.jsonl MIN_RATE
     obs_check regress BASELINE.json CURRENT.json [WALL_TOL]

   Every trace is loaded through Ttsv_obs.Profile, the one reader of the
   trace format, so a trace that breaks the schema contract (see
   profile.mli) fails all three trace gates with the offending line.
   [validate] also exits 1 when MIN_DEPTH is given and no span nests
   that deep.  [idle] is the regression gate on the pool's
   spin-then-park behaviour: it sums the [pool.idle_seconds] gauge out
   of the trace's summary records and exits 1 when the workers burned
   more than MAX_SECONDS spinning — the failure mode of an idle loop
   that never parks.  [hitrate] pools the [service.cache.*] hit and
   miss counters of a serve trace's summaries and exits 1 when the hit
   rate is below MIN_RATE.  [regress] is the bench-regression gate: it
   compares every iterations/wall_s metric in CURRENT against BASELINE
   (exact band on iteration counts, WALL_TOL ratio tolerance — default
   2.0 — on wall clocks), prints the trend table, and exits 1 naming
   each offending metric.

   The benches' own floors run where their numbers are: [bench service]
   fails on a missed throughput or hit-rate floor, [bench parallel]
   warns about implausible phase sums, and the IC(0)-vs-Jacobi and
   multigrid growth bounds are tier-1 tests. *)

module Json = Ttsv_obs.Json
module Profile = Ttsv_obs.Profile

let fail fmt =
  Printf.ksprintf
    (fun s ->
      prerr_endline ("obs_check: " ^ s);
      exit 1)
    fmt

let load path = match Profile.load path with Ok t -> t | Error e -> fail "%s: %s" path e

let validate path min_depth =
  let t = load path in
  let max_depth = List.fold_left (fun m (s : Profile.span) -> max m s.depth) 0 t.spans in
  let names = List.sort_uniq compare (List.map (fun (s : Profile.span) -> s.name) t.spans) in
  (match min_depth with
  | Some d when max_depth < d ->
    fail "%s: max span depth %d, expected nesting of at least %d" path max_depth d
  | Some _ | None -> ());
  Printf.printf
    "%s: OK — %d spans (%d distinct names, max depth %d), %d metrics, %d convs, %d summaries\n"
    path (List.length t.spans) (List.length names) max_depth t.metrics
    (List.length t.convs) (List.length t.summaries)

(* the summed numeric values of the summaries whose name satisfies [keep] *)
let summed path keep t =
  List.fold_left
    (fun acc (name, value) ->
      match (keep name, value) with
      | false, _ -> acc
      | true, Some v -> acc +. v
      | true, None -> fail "%s: %s summary without a numeric value" path name)
    0. t.Profile.summaries

(* the workers' spin-stretch gauge, summed across summary snapshots (a
   trace normally carries exactly one).  A pool whose idle loop fails to
   park shows up here as seconds of spinning per worker per quiet gap,
   instead of the microseconds a bounded spin costs. *)
let idle path max_seconds =
  let t = load path in
  if not (List.mem_assoc "pool.idle_seconds" t.summaries) then
    fail "%s: no pool.idle_seconds summary — did the run use a pool with metrics on?" path;
  let total = summed path (String.equal "pool.idle_seconds") t in
  if total > max_seconds then
    fail "%s: pool workers spent %.3fs spinning idle (budget %.3fs) — the idle loop is not parking"
      path total max_seconds;
  Printf.printf "%s: OK — pool.idle_seconds %.6fs within the %.3fs budget\n" path total
    max_seconds

(* pooled hit rate of the service caches, from the trace's summary
   snapshot: counters named service.cache.<level>.hits|misses *)
let hitrate path min_rate =
  let t = load path in
  let counter suffix name =
    String.starts_with ~prefix:"service.cache." name && String.ends_with ~suffix name
  in
  let hits = summed path (counter ".hits") t and misses = summed path (counter ".misses") t in
  let total = hits +. misses in
  if total = 0. then
    fail "%s: no service.cache.* counters — did the serve run have --metrics on?" path;
  let rate = hits /. total in
  if rate < min_rate then
    fail "%s: cache hit rate %.3f below the %.3f floor (%.0f hits / %.0f lookups)" path rate
      min_rate hits total;
  Printf.printf "%s: OK — cache hit rate %.3f (%.0f hits / %.0f lookups) >= %.3f\n" path rate
    hits total min_rate

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

let usage () =
  fail
    "usage: obs_check validate TRACE.jsonl [MIN_DEPTH] | obs_check idle TRACE.jsonl \
     MAX_SECONDS | obs_check hitrate TRACE.jsonl MIN_RATE | obs_check regress \
     BASELINE.json CURRENT.json [WALL_TOL]"

let () =
  match Array.to_list Sys.argv with
  | [ _; "validate"; path ] -> validate path None
  | [ _; "validate"; path; depth ] -> (
    match int_of_string_opt depth with
    | Some d -> validate path (Some d)
    | None -> usage ())
  | [ _; "idle"; path; budget ] -> (
    match float_of_string_opt budget with
    | Some b when b >= 0. -> idle path b
    | _ -> usage ())
  | [ _; "hitrate"; path; min_rate ] -> (
    match float_of_string_opt min_rate with
    | Some r when r >= 0. && r <= 1. -> hitrate path r
    | _ -> usage ())
  | [ _; "regress"; base; cur ] -> regress base cur
  | [ _; "regress"; base; cur; tol ] -> (
    match float_of_string_opt tol with
    | Some t when t >= 1. -> regress ~wall_tol:t base cur
    | _ -> usage ())
  | _ -> usage ()
