module P = Protocol
module Sparse = Ttsv_numerics.Sparse
module Vec = Ttsv_numerics.Vec
module Pool = Ttsv_parallel.Pool
module Budget = Ttsv_parallel.Budget
module Units = Ttsv_physics.Units
module Params = Ttsv_core.Params
module Validate = Ttsv_robust.Validate
module Robust = Ttsv_robust.Robust
module Diagnostics = Ttsv_robust.Diagnostics
module Problem = Ttsv_fem.Problem
module Solver = Ttsv_fem.Solver
module Chip = Ttsv_chip.Chip_model
module Pm = Ttsv_chip.Power_map
module Alloc = Ttsv_chip.Allocation
module Obs_span = Ttsv_obs.Span
module Metrics = Ttsv_obs.Metrics

let m_requests = Metrics.Counter.make "service.requests"
let m_errors = Metrics.Counter.make "service.errors"
let m_batches = Metrics.Counter.make "service.batches"
let m_warm_starts = Metrics.Counter.make "service.warm_starts"
let m_iterations = Metrics.Counter.make "service.iterations"
let m_request_wall = Metrics.Histogram.make "service.request_seconds"

type operator = { matrix : Sparse.t; source : Vec.t }

type t = {
  pool : Pool.t option;
  operators : operator Cache.t;
  solutions : Vec.t Cache.t;
}

let create ?pool ?(operators = 32) ?(solutions = 64) () =
  {
    pool;
    operators = Cache.create ~name:"operator" ~capacity:operators ();
    solutions = Cache.create ~name:"solution" ~capacity:solutions ();
  }

let level_stats c = (Cache.name c, (Cache.hits c, Cache.misses c, Cache.evictions c))
let cache_stats t = [ level_stats t.operators; level_stats t.solutions ]

let hit_rate t =
  let hits, misses =
    List.fold_left
      (fun (h, m) (_, (hits, misses, _)) -> (h + hits, m + misses))
      (0, 0) (cache_stats t)
  in
  if hits + misses = 0 then 0. else float_of_int hits /. float_of_int (hits + misses)

(* ------------------------------------------------------------- validation *)

let stack_of_geometry (g : P.geometry) =
  Params.block_checked ~r:(Units.um g.radius_um) ~t_liner:(Units.um g.liner_um)
    ~t_ild:(Units.um g.ild_um) ~t_bond:(Units.um g.bond_um) ~t_si23:(Units.um g.tsi_um)
    ~t_si1:(Units.um g.tsi1_um) ~l_ext:(Units.um g.lext_um) ()
  |> Result.map_error (fun violations ->
         P.error P.Invalid_geometry (Validate.to_string violations))

let bad fmt = Printf.ksprintf (fun msg -> Error (P.error P.Bad_request msg)) fmt

(* semantic bounds the structural decoder cannot know; resolution and
   grid caps bound the memory one request may pin *)
let check_solve (s : P.solve) =
  if s.resolution < 1 || s.resolution > 8 then
    bad "resolution %d out of range [1, 8]" s.resolution
  else if not (Float.is_finite s.tol && s.tol > 0. && s.tol < 1.) then
    bad "tol %g must be in (0, 1)" s.tol
  else
    match s.deadline_s with
    | Some d when not (Float.is_finite d && d > 0.) -> bad "deadline_s %g must be positive" d
    | _ -> Ok ()

let check_sweep (sw : P.sweep) =
  if sw.points < 2 || sw.points > 1000 then bad "points %d out of range [2, 1000]" sw.points
  else if not (Float.is_finite sw.from_um && Float.is_finite sw.to_um) then
    bad "sweep range must be finite"
  else check_solve sw.base

let check_chip (c : P.chip_alloc) =
  if c.grid < 2 || c.grid > 128 then bad "grid %d out of range [2, 128]" c.grid
  else if not (Float.is_finite c.size_mm && c.size_mm > 0.) then
    bad "size_mm %g must be positive" c.size_mm
  else if not (Float.is_finite c.power_w && c.power_w >= 0.) then
    bad "power_w %g must be nonnegative" c.power_w
  else if not (Float.is_finite c.hotspot_w && c.hotspot_w >= 0.) then
    bad "hotspot_w %g must be nonnegative" c.hotspot_w
  else if c.candidates < 1 || c.candidates > 64 then
    bad "candidates %d out of range [1, 64]" c.candidates
  else
    match c.budget_k with
    | Some b when not (Float.is_finite b && b > 0.) -> bad "budget_k %g must be positive" b
    | _ -> Ok ()

(* ------------------------------------------------------------ solve path *)

let error_of_failure (f : Robust.failure) =
  let diagnostics = Diagnostics.to_json f.Robust.diagnostics in
  match f.Robust.reason with
  | Robust.Invalid_input problems ->
    P.error ~diagnostics P.Bad_request (String.concat "; " problems)
  | Robust.Exhausted -> P.error ~diagnostics P.Solver_failure "every solver rung failed"
  | Robust.Deadline_exceeded ->
    P.error ~diagnostics P.Deadline_exceeded "deadline expired before convergence"

let ( let* ) = Result.bind

(* The cached-solve core shared by solve and sweep requests: operator
   from the operator cache, initial guess from the solution cache (exact
   key hit first, else the freshest dimension-compatible field), then
   the Robust ladder — which answers an exact hit at 0 iterations
   without building a preconditioner. *)
let solve_field t ?budget (s : P.solve) =
  let* () = check_solve s in
  let* stack = stack_of_geometry s.geometry in
  let key = P.solve_key s in
  let op, operator_hit =
    match Cache.find t.operators key with
    | Some op -> (op, true)
    | None ->
      let op =
        Obs_span.with_ ~name:"service.assemble" (fun () ->
            let p = Problem.of_stack ~resolution:s.resolution stack in
            { matrix = Solver.assemble ?pool:t.pool p; source = p.Problem.source })
      in
      Cache.add t.operators key op;
      (op, false)
  in
  let n = Array.length op.source in
  let x0, warm =
    match Cache.find t.solutions key with
    | Some x -> (Some x, P.Warm_exact)
    | None -> (
      match Cache.find_newest t.solutions (fun x -> Array.length x = n) with
      | Some x -> (Some x, P.Warm_neighbour)
      | None -> (None, P.Cold))
  in
  (match warm with P.Cold -> () | _ -> Metrics.Counter.incr m_warm_starts);
  let budget =
    match budget with
    | Some _ as b -> b
    | None -> Option.map (fun d -> Budget.make ~deadline_s:d ()) s.deadline_s
  in
  let max_iter = Stdlib.max 2000 (40 * n) in
  match
    Obs_span.with_ ~name:"service.solve" (fun () ->
        Robust.solve ~tol:s.tol ~max_iter ?x0 ?pool:t.pool ?budget op.matrix op.source)
  with
  | Error f -> Error (error_of_failure f)
  | Ok (x, d) ->
    Cache.add t.solutions key x;
    Metrics.Counter.add m_iterations d.Diagnostics.iterations;
    let max_rise_k = Array.fold_left Float.max 0. x in
    Ok
      {
        P.max_rise_k;
        iterations = d.Diagnostics.iterations;
        residual = d.Diagnostics.residual;
        rung = Option.fold ~none:"unknown" ~some:Diagnostics.rung_name d.Diagnostics.solved_by;
        cache = { P.operator_hit; precond_hit = false; warm };
        wall_s = 0.;  (* stamped by the caller *)
      }

let handle_solve t s =
  let t0 = Unix.gettimeofday () in
  let* solved = solve_field t s in
  Ok (P.Solved { solved with P.wall_s = Unix.gettimeofday () -. t0 })

(* ----------------------------------------------------------------- sweep *)

let apply_param (g : P.geometry) param x =
  match param with
  | P.Radius -> { g with P.radius_um = x }
  | P.Liner -> { g with P.liner_um = x }
  | P.Tsi -> { g with P.tsi_um = x }

let handle_sweep t (sw : P.sweep) =
  let* () = check_sweep sw in
  let t0 = Unix.gettimeofday () in
  (* one budget over the whole sweep: a deadline bounds the request, not
     each point *)
  let budget = Option.map (fun d -> Budget.make ~deadline_s:d ()) sw.base.P.deadline_s in
  let xs = Vec.linspace sw.from_um sw.to_um sw.points in
  (* points run in sweep order so each one can warm-start from its
     neighbour's just-cached field *)
  let rec run acc warm_starts total_iters = function
    | [] ->
      Ok
        (P.Swept
           {
             P.sweep_points = List.rev acc;
             sweep_iterations = total_iters;
             warm_starts;
             sweep_wall_s = Unix.gettimeofday () -. t0;
           })
    | x :: rest -> (
      let s = { sw.base with P.geometry = apply_param sw.base.P.geometry sw.param x } in
      match solve_field t ?budget s with
      | Error e ->
        Error { e with P.message = Printf.sprintf "at %g um: %s" x e.P.message }
      | Ok solved ->
        let point =
          {
            P.x_um = x;
            point_rise_k = solved.P.max_rise_k;
            point_iterations = solved.P.iterations;
          }
        in
        let warm_starts =
          match solved.P.cache.P.warm with P.Cold -> warm_starts | _ -> warm_starts + 1
        in
        run (point :: acc) warm_starts (total_iters + solved.P.iterations) rest)
  in
  run [] 0 0 (Array.to_list xs)

(* ------------------------------------------------------------ chip_alloc *)

let handle_chip t (c : P.chip_alloc) =
  let* () = check_chip c in
  let* stack = stack_of_geometry c.chip_geometry in
  let t0 = Unix.gettimeofday () in
  let planes = Array.to_list stack.Ttsv_geometry.Stack.planes in
  let chip =
    Chip.make ~width:(Units.mm c.size_mm) ~height:(Units.mm c.size_mm) ~nx:c.grid ~ny:c.grid
      ~planes ~tsv:stack.Ttsv_geometry.Stack.tsv ()
  in
  let base = Pm.uniform ~nx:c.grid ~ny:c.grid ~total:c.power_w in
  let h = (2 * c.grid) / 3 in
  let top = Pm.add_hotspot base ~x0:h ~y0:h ~x1:(h + 1) ~y1:(h + 1) ~watts:c.hotspot_w in
  let nplanes = List.length planes in
  let maps = List.mapi (fun i _ -> if i = nplanes - 1 then top else base) planes in
  let bare = Chip.solve chip (Chip.uniform_density chip 0.) maps in
  let* final, feasible, metal_area_mm2, iterations =
    match c.budget_k with
    | None -> Ok (bare, None, 0., 0)
    | Some budget ->
      let out =
        Alloc.allocate ?pool:t.pool chip maps
          {
            (Alloc.default_options ~budget) with
            Alloc.step = 0.01;
            max_density = 0.15;
            candidates = c.candidates;
          }
      in
      Ok
        ( out.Alloc.final,
          Some out.Alloc.feasible,
          out.Alloc.metal_area *. 1e6,
          out.Alloc.iterations )
  in
  Ok
    (P.Allocated
       {
         P.bare_rise_k = bare.Chip.max_rise;
         final_rise_k = final.Chip.max_rise;
         feasible;
         metal_area_mm2;
         alloc_iterations = iterations;
         alloc_wall_s = Unix.gettimeofday () -. t0;
       })

(* --------------------------------------------------------------- requests *)

let kind_name = function
  | P.Solve _ -> "solve"
  | P.Sweep _ -> "sweep"
  | P.Chip_alloc _ -> "chip_alloc"

let handle t (req : P.request) =
  let t0 = Unix.gettimeofday () in
  Metrics.Counter.incr m_requests;
  let result =
    Obs_span.with_ ~name:"service.request" ~attrs:[ ("kind", kind_name req.P.kind) ]
    @@ fun () ->
    (* the no-crash contract: geometry constructors and the chip model
       raise Invalid_argument on inputs the bounds checks cannot
       anticipate; anything else escaping a solver is an internal error
       — both become typed responses *)
    match
      match req.P.kind with
      | P.Solve s -> handle_solve t s
      | P.Sweep sw -> handle_sweep t sw
      | P.Chip_alloc c -> handle_chip t c
    with
    | outcome -> outcome
    | exception Invalid_argument msg -> Error (P.error P.Bad_request msg)
    | exception exn -> Error (P.error P.Internal (Printexc.to_string exn))
  in
  (match result with Error _ -> Metrics.Counter.incr m_errors | Ok _ -> ());
  Metrics.Histogram.observe m_request_wall (Unix.gettimeofday () -. t0);
  { P.request_id = Some req.P.id; result }

let handle_batch t reqs =
  Metrics.Counter.incr m_batches;
  Obs_span.with_ ~name:"service.batch"
    ~attrs:[ ("size", string_of_int (Array.length reqs)) ]
  @@ fun () ->
  match t.pool with
  | Some pool when Array.length reqs > 1 ->
    (* chunk 1: requests are coarse, unequal units of work — let each
       worker pull the next one as it frees up *)
    Pool.map_array ~chunk:1 pool (handle t) reqs
  | _ -> Array.map (handle t) reqs

(* ------------------------------------------------------------------ serve *)

let serve ?(batch = 64) t ic oc =
  if batch < 1 then invalid_arg "Engine.serve: batch must be >= 1";
  let answered = ref 0 in
  let rec read_group acc k =
    if k = 0 then List.rev acc
    else
      match In_channel.input_line ic with
      | None -> List.rev acc
      | Some line when String.trim line = "" -> read_group acc k
      | Some line -> read_group (line :: acc) (k - 1)
  in
  let rec loop () =
    match read_group [] batch with
    | [] -> ()
    | lines ->
      let items = List.map P.parse_request lines in
      let requests =
        Array.of_list (List.filter_map (function Ok r -> Some r | Error _ -> None) items)
      in
      let responses = if Array.length requests = 0 then [||] else handle_batch t requests in
      (* stitch handled responses and per-line parse errors back into
         input order *)
      let next = ref 0 in
      List.iter
        (fun item ->
          let response =
            match item with
            | Ok _ ->
              let r = responses.(!next) in
              incr next;
              r
            | Error (request_id, e) ->
              Metrics.Counter.incr m_requests;
              Metrics.Counter.incr m_errors;
              { P.request_id; result = Error e }
          in
          output_string oc (P.response_to_string response);
          output_char oc '\n';
          incr answered)
        items;
      flush oc;
      loop ()
  in
  loop ();
  !answered
