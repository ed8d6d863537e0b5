(* The ledger's three workloads and their seeded input generator.

   The seed drives a [Random.State] here; the library only ever sees the
   generated geometries, stacks and request lines.  Every input is
   validated with [Params.block_checked] during setup (a rejected draw is
   redrawn), so no op of a run fails on its input.  A workload's inputs
   are a small pool that its ops cycle through, so every input recurs
   several times in a run. *)

module Params = Ttsv_core.Params
module Model_a = Ttsv_core.Model_a
module Model_b = Ttsv_core.Model_b
module Model_1d = Ttsv_core.Model_1d
module Units = Ttsv_physics.Units
module Stack = Ttsv_geometry.Stack
module Sweep = Ttsv_experiments.Sweep
module Pool = Ttsv_parallel.Pool
module Sparse = Ttsv_numerics.Sparse
module Precond = Ttsv_numerics.Precond
module Problem = Ttsv_fem.Problem
module Solver = Ttsv_fem.Solver
module Grid = Ttsv_fem.Grid
module Robust = Ttsv_robust.Robust
module Diagnostics = Ttsv_robust.Diagnostics
module Protocol = Ttsv_service.Protocol
module Engine = Ttsv_service.Engine
module Span = Ttsv_obs.Span

let now = Unix.gettimeofday

let time f =
  let t0 = now () in
  let v = f () in
  (v, now () -. t0)

(* ------------------------------------------------------------ generator *)

let shuffle rng a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

(* One Latin-hypercube round of [n] draws: every parameter range is cut
   into [n] equal strata and each stratum holds exactly one draw.  A run
   that completes whole rounds therefore covers the ranges evenly
   whatever the seed, which keeps per-run medians steady across seeds.
   [make] validates a draw; a rejected one is redrawn inside its own
   strata. *)
let round rng n ranges make =
  let strata = Array.map (fun _ -> shuffle rng (Array.init n Fun.id)) ranges in
  Array.init n (fun i ->
      let rec draw tries =
        let x =
          Array.mapi
            (fun d (lo, hi) ->
              lo
              +. (hi -. lo)
                 *. (float_of_int strata.(d).(i) +. Random.State.float rng 1.)
                 /. float_of_int n)
            ranges
        in
        match make x with
        | Ok v -> v
        | Error _ when tries > 0 -> draw (tries - 1)
        | Error msg -> failwith ("no valid geometry in a stratum: " ^ msg)
      in
      draw 100)

let stack_of (g : Protocol.geometry) =
  Params.block_checked ~r:(Units.um g.radius_um) ~t_liner:(Units.um g.liner_um)
    ~t_ild:(Units.um g.ild_um) ~t_bond:(Units.um g.bond_um) ~t_si23:(Units.um g.tsi_um)
    ~t_si1:(Units.um g.tsi1_um) ~l_ext:(Units.um g.lext_um) ()
  |> Result.map_error Ttsv_robust.Validate.to_string

(* a draw is (radius, liner, upper-substrate thickness) in µm; every
   other knob keeps the paper default *)
let geometry x = { Protocol.default_geometry with radius_um = x.(0); liner_um = x.(1); tsi_um = x.(2) }

let validated x =
  let g = geometry x in
  Result.map (fun s -> (g, s)) (stack_of g)

(* ------------------------------------------------------------- workload *)

type outcome = {
  samples : (string * float) list;  (** per-op counts and layer samples *)
  verify : unit -> string list;  (** answer checks, run off the op's clock *)
  shadow : unit -> (string * float) list;
      (** layer samples the traced replay takes off the clock *)
}

type t = {
  name : string;
  cycle : int;  (** distinct inputs: op [i] runs input [i mod cycle] *)
  session : int;
      (** ops per user invocation: 1 for a CLI command, a whole session
          for [serve]; divides [cycle] *)
  run : traced:bool -> int -> outcome;
  after : unit -> string list;  (** answer checks deferred past the timed loop *)
  geometries : Protocol.geometry array;  (** inputs the layer probes reuse *)
  close : unit -> unit;
}

let no_shadow () = []
let failed msg = { samples = []; verify = (fun () -> [ msg ]); shadow = no_shadow }

let finite_positive what v =
  if Float.is_finite v && v > 0. then [] else [ Printf.sprintf "%s = %g is not finite positive" what v ]

(* relative agreement, the tolerance every answer check uses *)
let close_to ~tol a b = Float.abs (a -. b) <= tol *. Float.max (Float.abs a) (Float.abs b)

(* ------------------------------------------------------- sweep_analytic *)

(* [ttsv_cli sweep]'s per-point body: Model A with the block
   coefficients, Model B(100) and the 1-D model *)
let analytic_point (g : Protocol.geometry) =
  let s =
    Params.block ~r:(Units.um g.radius_um) ~t_liner:(Units.um g.liner_um)
      ~t_ild:(Units.um g.ild_um) ~t_bond:(Units.um g.bond_um) ~t_si23:(Units.um g.tsi_um)
      ~t_si1:(Units.um g.tsi1_um) ~l_ext:(Units.um g.lext_um) ()
  in
  let a =
    Span.with_ ~name:"bench.core.model_a" (fun () -> Model_a.solve ~coeffs:Params.block_coeffs s)
  in
  let b = Span.with_ ~name:"bench.core.model_b100" (fun () -> Model_b.solve_n s 100) in
  let d = Span.with_ ~name:"bench.core.model_1d" (fun () -> Model_1d.solve s) in
  (s, a, Model_b.max_rise b, Model_1d.max_rise d)

let sweep_analytic ~smoke rng =
  let points = if smoke then 40 else 1000 and ops = if smoke then 1 else 8 in
  let ranges = [| (1., 20.); (0.5, 3.); (10., 45.) |] in
  let inputs =
    Array.init ops (fun _ -> round rng points ranges (fun x -> Result.map fst (validated x)))
  in
  let pool = Pool.create ~domains:2 () in
  let verify rows () =
    Array.to_list rows
    |> List.concat_map (fun (s, a, b, d) ->
           let q = Stack.total_heat s in
           (if close_to ~tol:1e-9 (Model_a.sink_path_heat a) q then []
            else
              [
                Printf.sprintf "Model A sink heat %.17g W vs injected %.17g W"
                  (Model_a.sink_path_heat a) q;
              ])
           @ finite_positive "Model A max rise" (Model_a.max_rise a)
           @ finite_positive "Model B max rise" b
           @ finite_positive "1-D max rise" d)
  in
  {
    name = "sweep_analytic";
    cycle = ops;
    session = 1;
    run =
      (fun ~traced:_ i ->
        let rows =
          Span.with_ ~name:"bench.sweep" (fun () ->
              Sweep.map_array ~pool analytic_point inputs.(i mod ops))
        in
        { samples = []; verify = verify rows; shadow = no_shadow });
    after = (fun () -> []);
    geometries = inputs.(0);
    close = (fun () -> Pool.shutdown pool);
  }

(* ------------------------------------------------------------ fv2d_cold *)

(* The FV solve path: the untraced op calls [Solver.try_solve] exactly as
   the CLI does; the traced op splits it into mesh, assemble and ladder
   with the arguments [try_solve] passes ([ladder_tol], [ladder_max_iter]
   and the grid's [shape]). *)
let mesh s = Problem.of_stack ~resolution:3 s
let shape (p : Problem.t) = [| Grid.nr p.grid; Grid.nz p.grid |]
let ladder_tol = 1e-10
let ladder_max_iter n = Stdlib.max 2000 (40 * n)

(* setup times of the preconditioners the ladder's top rungs build, on
   one operator: the shadow the per-layer precond metrics come from *)
let precond_shadow ~shape a () =
  let mg, mg_s = time (fun () -> Precond.mg ~shape a) in
  let ic0, ic0_s = time (fun () -> Precond.ic0 a) in
  let levels m = float_of_int (Option.value (Precond.mg_levels m) ~default:0) in
  (match mg with
  | Ok m -> [ ("precond.mg.setup_s", mg_s); ("precond.mg.levels", levels m) ]
  | Error _ -> [])
  @ match ic0 with Ok _ -> [ ("precond.ic0.setup_s", ic0_s) ] | Error _ -> []

(* per-solve counts from the ladder's diagnostics; [robust.deciding_s]
   is the wall time of the rung that produced the answer *)
let ladder_samples (d : Diagnostics.t) =
  let deciding =
    List.find_opt (fun (a : Diagnostics.attempt) -> Some a.rung = d.solved_by) d.attempts
  in
  [
    ("krylov.iterations", float_of_int d.iterations);
    ("robust.attempts", float_of_int (List.length d.attempts));
    ( "robust.solved_by."
      ^ (match d.solved_by with Some r -> Diagnostics.rung_name r | None -> "none"),
      1. );
  ]
  @
  match deciding with
  | Some a ->
    [
      ("robust.deciding_s", a.wall_time);
      ("robust.deciding_iterations", float_of_int a.iterations);
      ("robust.deciding." ^ Diagnostics.rung_name a.rung, 1.);
    ]
  | None -> []

let fv_op stack ~traced =
  let audit p x (d : Diagnostics.t) () =
    let imbalance =
      Solver.energy_imbalance
        { Solver.problem = p; temps = x; iterations = d.iterations; residual = d.residual; diagnostics = d }
    in
    (if imbalance <= 1e-6 then [] else [ Printf.sprintf "energy imbalance %.3g > 1e-6" imbalance ])
    @ finite_positive "FV max rise" (Array.fold_left Float.max Float.neg_infinity x)
  in
  let failure (f : Robust.failure) =
    failed (Format.asprintf "FV solve failed: %a" Robust.pp_reason f.reason)
  in
  if not traced then
    let p = mesh stack in
    match Solver.try_solve p with
    | Error f -> failure f
    | Ok r ->
      {
        samples = ladder_samples r.diagnostics;
        verify = audit p r.temps r.diagnostics;
        shadow = no_shadow;
      }
  else
    let p = Span.with_ ~name:"bench.fem.mesh" (fun () -> mesh stack) in
    let a = Span.with_ ~name:"bench.fem.assemble" (fun () -> Solver.assemble p) in
    let n = Sparse.rows a and shape = shape p in
    match
      Span.with_ ~name:"bench.robust.ladder" (fun () ->
          Robust.solve ~tol:ladder_tol ~max_iter:(ladder_max_iter n) ~shape a p.Problem.source)
    with
    | Error f -> failure f
    | Ok (x, d) ->
      {
        samples =
          ("fem.cells", float_of_int n) :: ("fem.nnz", float_of_int (Sparse.nnz a)) :: ladder_samples d;
        verify = audit p x d;
        shadow = precond_shadow ~shape a;
      }

(* [ttsv_cli solve --model fv]: mesh, assemble, preconditioner setup and
   Krylov on every solve, ~7k unknowns at resolution 3; one
   Latin-hypercube round of 16 geometries *)
let fv2d_cold ~smoke rng =
  let inputs =
    round rng (if smoke then 2 else 16) [| (2., 10.); (0.5, 3.); (10., 45.) |] validated
  in
  let ops = Array.length inputs in
  {
    name = "fv2d_cold";
    cycle = ops;
    session = 1;
    run = (fun ~traced i -> fv_op (snd inputs.(i mod ops)) ~traced);
    after = (fun () -> []);
    geometries = Array.map fst inputs;
    close = ignore;
  }

(* --------------------------------------------------------- serve_stream *)

let warm_name = function
  | Protocol.Cold -> "cold"
  | Protocol.Warm_exact -> "exact"
  | Protocol.Warm_neighbour -> "neighbour"

let solve_request id geometry =
  {
    Protocol.id;
    kind = Protocol.Solve { geometry; resolution = 3; tol = 1e-10; deadline_s = None };
  }

(* One session of [ttsv_cli serve] at resolution 3: a fresh engine (one
   serve process) answering [requests] lines that cycle through [vias]
   vias, as (geometry, is a repeat, line).  Every request is for the
   paper-default stack, as for one chip design whose layers are fixed
   while its vias are sized; this also keeps the operator size, and with
   it the cost of an exact hit, the same in every session.  The vias are
   one Latin-hypercube round over r ∈ [2, 10] and t_L ∈ [0.5, 3]. *)
let session rng ~vias ~requests =
  let vias =
    round rng vias [| (2., 10.); (0.5, 3.) |] (fun x ->
        Result.map fst (validated [| x.(0); x.(1); Protocol.default_geometry.tsi_um |]))
  in
  Array.init requests (fun j ->
      let g = vias.(j mod Array.length vias) in
      let line =
        Ttsv_obs.Json.to_string
          (Protocol.request_to_json (solve_request (Printf.sprintf "r%d" j) g))
      in
      (g, j >= Array.length vias, line))

(* Each op is one request line through decode -> Engine.handle ->
   encode; an invocation is the whole session, replayed on a fresh
   engine each time. *)
let serve ~name requests =
  let total = Array.length requests in
  let engine = ref (Engine.create ()) in
  (* per session: the first answer for each geometry, which every exact
     repeat must reproduce *)
  let firsts = Hashtbl.create 32 in
  (* every 10th new geometry of the session, re-solved with
     [Solver.solve] after the timed loop *)
  let deferred = Hashtbl.create 64 in
  let news_seen = ref 0 in
  let run ~traced:_ i =
    let j = i mod total in
    if j = 0 then begin
      engine := Engine.create ();
      Hashtbl.reset firsts;
      news_seen := 0
    end;
    let g, repeat, line = requests.(j) in
    match Span.with_ ~name:"bench.service.decode" (fun () -> Protocol.parse_request line) with
    | Error (_, e) -> failed ("request did not decode: " ^ e.Protocol.message)
    | Ok req -> (
      let resp, handle_s =
        time (fun () -> Span.with_ ~name:"bench.service.handle" (fun () -> Engine.handle !engine req))
      in
      let (_ : string) =
        Span.with_ ~name:"bench.service.encode" (fun () -> Protocol.response_to_string resp)
      in
      match resp.Protocol.result with
      | Error e -> failed ("typed error response: " ^ e.Protocol.message)
      | Ok (Protocol.Swept _ | Protocol.Allocated _) -> failed "wrong payload kind"
      | Ok (Protocol.Solved s) ->
        let cls = warm_name s.cache.warm in
        let key = Protocol.solve_key { geometry = g; resolution = 3; tol = 1e-10; deadline_s = None } in
        if not repeat then begin
          Hashtbl.replace firsts key s.max_rise_k;
          incr news_seen;
          if !news_seen mod 10 = 1 then Hashtbl.replace deferred j (g, s.max_rise_k)
        end;
        let first = Hashtbl.find_opt firsts key in
        let verify () =
          finite_positive "served max rise" s.max_rise_k
          @
          match first with
          | Some r when repeat && not (close_to ~tol:1e-6 r s.max_rise_k) ->
            [ Printf.sprintf "exact repeat %.17g K differs from first answer %.17g K" s.max_rise_k r ]
          | Some _ -> []
          | None -> [ "repeat of a geometry the session never sent" ]
        in
        let hit b = if b then 1. else 0. in
        {
          samples =
            [
              ("service.handle." ^ cls ^ "_s", handle_s);
              ("service.warm." ^ cls, 1.);
              ("service.cache.operator.hits", hit s.cache.operator_hit);
              ("service.cache.precond.hits", hit s.cache.precond_hit);
              ("service.cache.solution.hits", hit (s.cache.warm <> Protocol.Cold));
              ("krylov.iterations", float_of_int s.iterations);
            ];
          verify;
          shadow = no_shadow;
        })
  in
  let after () =
    Hashtbl.fold
      (fun _ (g, served) acc ->
        match stack_of g with
        | Error e -> ("reference geometry rejected: " ^ e) :: acc
        | Ok s ->
          let r = Solver.max_rise (Solver.solve (Problem.of_stack ~resolution:3 s)) in
          if close_to ~tol:1e-6 r served then acc
          else Printf.sprintf "served %.17g K vs Solver.solve %.17g K" served r :: acc)
      deferred []
  in
  {
    name;
    cycle = total;
    session = total;
    run;
    after;
    geometries = Array.map (fun (g, _, _) -> g) requests;
    close = ignore;
  }

(* The traffic mix of BENCH_service.json's serve_fv_repeated run at
   batch 100 (bench/main.ml): 100 requests cycling 5 vias on a fresh
   engine, so 1 cold request, 4 warm from a neighbour's field and 95
   exact hits.  A session is 1.2-2 s, so the run's one session recurs
   ~16-23 times in a 35 s run and every request's median is taken over
   that many repeats.  Five vias never fill the engine's caches, so
   nothing is evicted. *)
let serve_stream ~smoke rng =
  let vias, requests = if smoke then (2, 4) else (5, 100) in
  serve ~name:"serve_stream" (session rng ~vias ~requests)

let all =
  [
    ("sweep_analytic", sweep_analytic);
    ("fv2d_cold", fv2d_cold);
    ("serve_stream", serve_stream);
  ]

let setup name ~smoke ~seed =
  match List.assoc_opt name all with
  | None -> invalid_arg ("unknown workload " ^ name)
  | Some make -> make ~smoke (Random.State.make [| seed |])
