module Obs_metrics = Ttsv_obs.Metrics
module Budget = Ttsv_parallel.Budget
module Fault = Ttsv_parallel.Fault

(* per-attempt observability: total CG iterations spent and the final
   true relative residual of each attempt *)
let m_cg_iters = Obs_metrics.Counter.make "cg.iterations"
let m_cg_res = Obs_metrics.Histogram.make "cg.residual_final"

let record_attempt iterations residual =
  if Ttsv_obs.Flags.metrics_on () then begin
    Obs_metrics.Counter.add m_cg_iters iterations;
    Obs_metrics.Histogram.observe m_cg_res residual
  end

type status =
  | Converged
  | Iteration_limit
  | Breakdown of string
  | Stagnated of int
  | Diverged of float
  | Non_finite of string
  | Budget_exhausted of Budget.verdict

type result = {
  solution : Vec.t;
  iterations : int;
  residual : float;
  converged : bool;
  status : status;
  trace : float array;
}

let pp_status ppf = function
  | Converged -> Format.fprintf ppf "converged"
  | Iteration_limit -> Format.fprintf ppf "iteration limit reached"
  | Breakdown what -> Format.fprintf ppf "breakdown (%s)" what
  | Stagnated k -> Format.fprintf ppf "stagnated (%d iterations without progress)" k
  | Diverged factor -> Format.fprintf ppf "diverged (residual grew %.3gx)" factor
  | Non_finite where -> Format.fprintf ppf "non-finite values in %s" where
  | Budget_exhausted v -> Format.fprintf ppf "budget exhausted (%a)" Budget.pp_verdict v

let norm_b_floor b = Float.max (Vec.norm2 b) 1e-300

(* the partials of a chunked reduction, one per [Vec.reduce_chunk]
   chunk, folded in chunk order: the grouping [Vec.pdot] uses *)
let chunk_sum ?pool n map =
  Ttsv_parallel.Pool.map_reduce ~chunk:Vec.reduce_chunk
    (Option.value pool ~default:Ttsv_parallel.Pool.seq)
    ~n ~map ~reduce:( +. ) ~init:0.

(* sum of r_i * r_i, r_i = b_i - (A x)_i, over the rows [lo, hi): each
   row summed in [Sparse.mul]'s order.  A top-level function, so the
   CSR arrays stay in registers; as a closure reading them from its
   environment the pass ran ~25 % slower. *)
let residual_squares (row_ptr : int array) (col_idx : int array) (values : float array)
    (x : float array) (b : float array) lo hi =
  let acc = ref 0. in
  for i = lo to hi - 1 do
    let ax = ref 0. in
    for k = row_ptr.(i) to row_ptr.(i + 1) - 1 do
      ax := !ax +. (values.(k) *. x.(col_idx.(k)))
    done;
    let r = b.(i) -. !ax in
    acc := !acc +. (r *. r)
  done;
  !acc

(* ||b - A x|| / ||b|| in one fused pass, the squares summed per
   [Vec.reduce_chunk] chunk and the chunks folded in order: that is
   [Vec.pnorm2 (Vec.sub b (Sparse.mul a x))] bit for bit, the residual
   [cg] would start from at [x], with no n-vector allocated. *)
let relative_residual ?pool a b x =
  let n = Sparse.rows a in
  if Array.length x <> Sparse.cols a then
    invalid_arg "Iterative.relative_residual: x dimension mismatch";
  if Array.length b <> n then invalid_arg "Iterative.relative_residual: b dimension mismatch";
  let row_ptr, col_idx, values = Sparse.csr a in
  let sum_sq =
    chunk_sum ?pool n (fun ~lo ~hi -> residual_squares row_ptr col_idx values x b lo hi)
  in
  sqrt sum_sq /. norm_b_floor b

(* The two fused passes of a CG iteration.  Each is a top-level
   function of the arrays it reads, like [residual_squares], and returns
   one chunk's partial sum; [chunk_sum] folds them, so each reduction
   equals [Vec.pdot]'s bit for bit, pooled or not. *)

(* ap.(i) <- (A p)_i, summed in [Sparse.mul]'s order, and the partial
   of p . Ap over the rows [lo, hi) *)
let matvec_dot (row_ptr : int array) (col_idx : int array) (values : float array)
    (p : float array) (ap : float array) lo hi =
  let acc = ref 0. in
  for i = lo to hi - 1 do
    let s = ref 0. in
    for k = row_ptr.(i) to row_ptr.(i + 1) - 1 do
      s := !s +. (values.(k) *. p.(col_idx.(k)))
    done;
    ap.(i) <- !s;
    acc := !acc +. (p.(i) *. !s)
  done;
  !acc

(* x += alpha p and r -= alpha Ap over [lo, hi), and the partial of
   r . r after the update *)
let update_norm alpha (p : float array) (ap : float array) (x : float array)
    (r : float array) lo hi =
  let acc = ref 0. in
  for i = lo to hi - 1 do
    x.(i) <- (alpha *. p.(i)) +. x.(i);
    let ri = r.(i) -. (alpha *. ap.(i)) in
    r.(i) <- ri;
    acc := !acc +. (ri *. ri)
  done;
  !acc

let mul_dot ?pool a p ap =
  let n = Sparse.rows a in
  if Array.length p <> Sparse.cols a || Array.length ap <> n || Sparse.cols a <> n then
    invalid_arg "Iterative.mul_dot: dimension mismatch";
  let row_ptr, col_idx, values = Sparse.csr a in
  chunk_sum ?pool n (fun ~lo ~hi -> matvec_dot row_ptr col_idx values p ap lo hi)

let update_sumsq ?pool alpha p ap x r =
  let n = Array.length x in
  if Array.length p <> n || Array.length ap <> n || Array.length r <> n then
    invalid_arg "Iterative.update_sumsq: dimension mismatch";
  chunk_sum ?pool n (fun ~lo ~hi -> update_norm alpha p ap x r lo hi)

(* Budget poll, once per Krylov iteration: overshoot past a deadline is
   bounded by a single iteration (plus the final true-residual matvec). *)
let budget_status = function
  | None -> None
  | Some b -> (
    match Budget.check b with Some v -> Some (Budget_exhausted v) | None -> None)

let budget_tick = function Some b -> Budget.tick b | None -> ()

let default_max_iter n max_iter =
  match max_iter with Some m -> m | None -> Stdlib.max 100 (10 * n)

let default_stagnation_window = 250
let default_divergence_factor = 1e4

(* Krylov methods routinely plateau for long stretches before their
   superlinear phase kicks in (the plateau length tracks the spectrum,
   not the user's patience), so the default window scales with the
   iteration budget: give up only after 10 % of the budget passes with
   no meaningful progress. *)
let resolve_window max_iter = function
  | Some w -> w
  | None -> Stdlib.max default_stagnation_window (max_iter / 10)

(* In-flight health guard shared by every iteration: watches the residual
   history for NaN/Inf, for growth beyond [growth] times the best residual
   seen, and for [window] consecutive iterations without a meaningful
   (0.1 %) improvement over that best.  [best]/[best_iter] are the mutable
   monitor state. *)
let guard ~window ~growth best best_iter iter res =
  if not (Float.is_finite res) then Some (Non_finite "iterates")
  else if res < 0.999 *. !best then begin
    best := res;
    best_iter := iter;
    None
  end
  else if res > growth *. !best then Some (Diverged (res /. !best))
  else if iter - !best_iter >= window then Some (Stagnated (iter - !best_iter))
  else None

(* Preconditioned conjugate gradients (Jacobi by default, or any
   [Precond.t] the caller supplies — the Robust ladder passes IC(0), and
   multigrid when pinned, here).

   Every reduction (dots, residual norms) goes through the chunked
   [Vec.pdot]/[Vec.pnorm2], whose value does not depend on the pool, and
   every preconditioner application is pool-independent too: the
   stagnation/divergence guard therefore observes the *same* residual
   sequence whether the kernels are pooled or not, and a pooled run
   takes exactly the iteration count of a sequential one.

   The whole solve runs inside one persistent [Pool.with_region], so the
   thousands of sub-millisecond Krylov kernels are published to
   already-resident workers instead of waking and joining them each. *)
let cg ?(tol = 1e-10) ?max_iter ?x0 ?stagnation_window
    ?(divergence_factor = default_divergence_factor) ?pool ?precond ?budget a b =
  let n = Sparse.rows a in
  if Sparse.cols a <> n then invalid_arg "Iterative.cg: matrix not square";
  if Array.length b <> n then invalid_arg "Iterative.cg: rhs dimension mismatch";
  let max_iter = default_max_iter n max_iter in
  let stagnation_window = resolve_window max_iter stagnation_window in
  (* the Jacobi fallback is built only when no preconditioner was
     supplied: one Sparse.diagonal pass, not a wasted one per call *)
  let m =
    match precond with
    | Some m -> m
    | None -> Precond.jacobi_of_diagonal (Sparse.diagonal a)
  in
  if Precond.dim m <> n then invalid_arg "Iterative.cg: preconditioner dimension mismatch";
  Ttsv_parallel.Pool.with_region
    (Option.value pool ~default:Ttsv_parallel.Pool.seq)
    (fun () ->
      let x = match x0 with Some v -> Vec.copy v | None -> Vec.zeros n in
      let ax0 = Sparse.mul ?pool a x in
      budget_tick budget;
      Fault.poison "matvec" ax0;
      let r = Vec.sub b ax0 in
      let nb = norm_b_floor b in
      let res = ref (Vec.pnorm2 ?pool r /. nb) in
      let trace = ref [ !res ] in
      let iter = ref 0 in
      let status = ref (if !res <= tol then Some Converged else None) in
      (* the workspace M^-1 r, p and Ap is built only when the loop will
         run (an exact warm start never reads it), once per solve: every
         iteration fills it in place *)
      if !status = None then begin
        let z = Vec.zeros n in
        Precond.apply_into ?pool m r z;
        let p = Vec.copy z in
        let ap = Vec.zeros n in
        let rz = ref (Vec.pdot ?pool r z) in
        let best = ref !res and best_iter = ref 0 in
        while !status = None && !iter < max_iter do
          match budget_status budget with
          | Some s -> status := Some s
          | None ->
          incr iter;
          (* fused: Ap and p.Ap in one pass *)
          let pap = mul_dot ?pool a p ap in
          budget_tick budget;
          (* the chaos site poisons both values the iteration reads *)
          let pap =
            if Fault.fire "matvec" && n > 0 then begin
              ap.(0) <- Float.nan;
              Float.nan
            end
            else pap
          in
          if Float.abs pap < 1e-300 then status := Some (Breakdown "p.Ap underflow")
          else begin
            let alpha = !rz /. pap in
            (* fused: x += alpha p, r -= alpha Ap and ||r||^2 in one pass *)
            res := sqrt (update_sumsq ?pool alpha p ap x r) /. nb;
            trace := !res :: !trace;
            if !res <= tol then status := Some Converged
            else begin
              (match
                 guard ~window:stagnation_window ~growth:divergence_factor best best_iter
                   !iter !res
               with
              | Some s -> status := Some s
              | None -> ());
              if !status = None then begin
                Precond.apply_into ?pool m r z;
                let rz' = Vec.pdot ?pool r z in
                let beta = rz' /. !rz in
                rz := rz';
                (* fused: p <- z + beta p in one pass *)
                Vec.pxpby ?pool z beta p
              end
            end
          end
        done
      end;
      let status = match !status with Some s -> s | None -> Iteration_limit in
      (* On any exit that did not just verify [res <= tol] the recurrence
         residual may have drifted from the truth (most visibly on p.Ap
         breakdown, where the loop aborts with a stale update); recompute
         the true residual so [converged] cannot lie. *)
      let residual =
        match status with Converged -> !res | _ -> relative_residual ?pool a b x
      in
      let converged = Float.is_finite residual && residual <= tol in
      record_attempt !iter residual;
      let trace = Array.of_list (List.rev !trace) in
      (* [trace] is the solve's one residual history; a traced run also
         writes it as a [conv] line tagged with the enclosing span (the
         [robust.<rung>] span when the Robust ladder drives) *)
      if Ttsv_obs.Flags.trace_on () then
        Ttsv_obs.Sink.conv ?span:(Ttsv_obs.Span.current ()) ~meth:"cg" trace;
      {
        solution = x;
        iterations = !iter;
        residual;
        converged;
        status = (if converged then Converged else status);
        trace;
      })
