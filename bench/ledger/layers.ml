(* Per-layer probes.  A probe times one layer's public functions on the
   workload's own first input, off the op clock, and files its samples
   under the names the traced ops use.  Where a workload's ops reach a
   layer the ops' samples stand and the probe's are dropped, so every
   per-layer metric exists on every workload, measured on its path when
   it can be. *)

open Workloads

(* named samples: per-op counts, span durations, shadows and probes *)
module Samples = struct
  type t = (string, float list) Hashtbl.t

  let create () : t = Hashtbl.create 64
  let get (t : t) k = Option.value (Hashtbl.find_opt t k) ~default:[]
  let mem (t : t) k = Hashtbl.mem t k
  let add (t : t) k v = Hashtbl.replace t k (v :: get t k)
  let add_all t kvs = List.iter (fun (k, v) -> add t k v) kvs
  let sum t k = List.fold_left ( +. ) 0. (get t k)

  (* a probe's samples, for the keys nothing else filled *)
  let fill t kvs = add_all t (List.filter (fun (k, _) -> not (mem t k)) kvs)
end

(* Per-call seconds of [f], one sample per batch: batches are sized to
   ~100 µs so the clock's resolution does not show, and the loop runs
   until 200 calls over at least 10 batches, or for at most ~1 s. *)
let per_call f =
  let (_ : _), single = time f in
  let batch = max 1 (min 10_000 (int_of_float (1e-4 /. Float.max single 1e-8))) in
  let t_start = now () and calls = ref 0 and out = ref [] in
  while
    (!calls < 200 || List.length !out < 10)
    && (now () -. t_start < 1. || List.length !out < 3)
  do
    let t0 = now () in
    for _ = 1 to batch do
      ignore (Sys.opaque_identity (f ()))
    done;
    out := ((now () -. t0) /. float_of_int batch) :: !out;
    calls := !calls + batch
  done;
  !out

let keyed k xs = List.map (fun x -> (k, x)) xs

let stacks geometries =
  Array.to_list (Array.sub geometries 0 (min 16 (Array.length geometries)))
  |> List.filter_map (fun g -> Result.to_option (stack_of g))
  |> Array.of_list

let cycling a =
  let k = ref 0 in
  fun () ->
    let v = a.(!k mod Array.length a) in
    incr k;
    v

let core geometries =
  let next = cycling (stacks geometries) in
  keyed "bench.core.model_a"
    (per_call (fun () -> Model_a.solve ~coeffs:Params.block_coeffs (next ())))
  @ keyed "bench.core.model_b100" (per_call (fun () -> Model_b.solve_n (next ()) 100))
  @ keyed "bench.core.model_1d" (per_call (fun () -> Model_1d.solve (next ())))

let best_of k f = List.fold_left Float.min Float.infinity (List.init k (fun _ -> snd (time f)))

(* the analytic sweep body over 1000 of the workload's geometries, on
   one domain and through a 2-domain pool *)
let pool_speedup geometries =
  let pts = Array.init 1000 (fun i -> geometries.(i mod Array.length geometries)) in
  let seq = best_of 2 (fun () -> Sweep.map_array analytic_point pts) in
  let pooled =
    Pool.with_pool ~domains:2 (fun pool ->
        best_of 2 (fun () -> Sweep.map_array ~pool analytic_point pts))
  in
  seq /. pooled

(* what handing one kernel to a 2-domain pool's resident workers costs
   over running it inline: a two-chunk no-op inside an open region,
   minus the same chunk walk on the sequential pool *)
let dispatch_us () =
  let calls = 2000 in
  let loop pool () =
    for _ = 1 to calls do
      Pool.for_chunks ~chunk:1 ~min_size:2 pool 2 (fun ~lo:_ ~hi:_ -> ())
    done
  in
  let seq = best_of 3 (loop Pool.seq) in
  let pooled =
    Pool.with_pool ~domains:2 (fun pool -> Pool.with_region pool (fun () -> best_of 3 (loop pool)))
  in
  (pooled -. seq) /. float_of_int calls *. 1e6

type operator = { a : Sparse.t; shape : int array; source : float array }

(* mesh and assemble the first input the way [fv2d_cold]'s solves do,
   timing both *)
let operator stack =
  let p, mesh_s = time (fun () -> mesh stack) in
  let a, assemble_s = time (fun () -> Solver.assemble p) in
  ( { a; shape = shape p; source = p.Problem.source },
    [
      ("bench.fem.mesh", mesh_s);
      ("bench.fem.assemble", assemble_s);
      ("fem.cells", float_of_int (Sparse.rows a));
      ("fem.nnz", float_of_int (Sparse.nnz a));
    ] )

(* one ladder climb with [try_solve]'s arguments, plus its shadow *)
let ladder op =
  let r, s =
    time (fun () ->
        Robust.solve ~tol:ladder_tol ~max_iter:(ladder_max_iter (Sparse.rows op.a)) ~shape:op.shape
          op.a op.source)
  in
  precond_shadow ~shape:op.shape op.a ()
  @ ("bench.robust.ladder", s)
  :: (match r with Ok (_, d) -> ladder_samples d | Error _ -> [])

(* ns per stored nonzero (or per element) of the kernels a Krylov
   iteration runs, on the probe operator *)
let kernels op =
  let n = Sparse.rows op.a and nnz = float_of_int (Sparse.nnz op.a) in
  let x = Array.init n (fun i -> 1. +. float_of_int (i mod 13)) in
  let y = Array.copy x in
  let ns per samples = List.map (fun s -> s *. 1e9 /. per) samples in
  let matvec = per_call (fun () -> Sparse.mat_vec op.a x) in
  (* bytes a CSR matvec must touch: value + column index + gathered x
     per nonzero, row pointer + y per row; computed, not measured *)
  let bytes = (nnz *. 24.) +. (float_of_int n *. 16.) in
  let apply = function
    | Ok m -> ns nnz (per_call (fun () -> Precond.apply m x))
    | Error _ -> []
  in
  keyed "sparse.matvec_ns_per_nnz" (ns nnz matvec)
  @ keyed "sparse.matvec_gbps_computed" (List.map (fun s -> bytes /. s /. 1e9) matvec)
  @ keyed "precond.ic0.apply_ns_per_nnz" (apply (Precond.ic0 op.a))
  @ keyed "precond.mg.apply_ns_per_nnz" (apply (Precond.mg ~shape:op.shape op.a))
  @ keyed "vec.dot_ns_per_elt"
      (ns (float_of_int n) (per_call (fun () -> Ttsv_numerics.Vec.pdot x y)))
  @ keyed "vec.axpy_ns_per_elt"
      (ns (float_of_int n) (per_call (fun () -> Ttsv_numerics.Vec.paxpy 1e-9 x y)))

(* decode of one request line and encode of its response *)
let codec (g : Protocol.geometry) =
  let req = solve_request "probe" g in
  let line = Ttsv_obs.Json.to_string (Protocol.request_to_json req) in
  let resp = Engine.handle (Engine.create ()) req in
  keyed "bench.service.decode" (per_call (fun () -> Protocol.parse_request line))
  @ keyed "bench.service.encode" (per_call (fun () -> Protocol.response_to_string resp))

(* [Engine.handle] per cache class, for the workloads that do not serve:
   one session over a fixed design, the same for every seed, with every
   class (1 cold, 2 neighbour and 18 exact requests) *)
let service () =
  let w = serve ~name:"service_probe" (session (Random.State.make [| 0 |]) ~vias:3 ~requests:21) in
  List.concat (List.init w.cycle (fun i -> (w.run ~traced:false i).samples))
  |> List.filter (fun (k, _) -> String.starts_with ~prefix:"service.handle." k)

(* Every probe, filling only what the ops left empty; [det] also takes
   the ladder probe's counts, the deterministic ones. *)
let run (w : Workloads.t) ~layer ~det =
  let geometries = w.geometries in
  let stack =
    match stack_of geometries.(0) with Ok s -> s | Error e -> failwith ("probe geometry: " ^ e)
  in
  if not (Samples.mem layer "bench.core.model_a") then Samples.fill layer (core geometries);
  Samples.add layer "sweep.pool_speedup" (pool_speedup geometries);
  let op, fem = operator stack in
  Samples.fill layer fem;
  Samples.add layer "parallel.dispatch_us" (dispatch_us ());
  if not (Samples.mem layer "bench.robust.ladder") then begin
    let l = ladder op in
    Samples.fill layer l;
    Samples.fill det l
  end;
  Samples.fill layer (kernels op);
  if not (Samples.mem layer "bench.service.decode") then begin
    Samples.fill layer (codec geometries.(0));
    Samples.fill layer (service ())
  end
