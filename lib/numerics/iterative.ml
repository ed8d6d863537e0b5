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
  conv : Ttsv_obs.History.snapshot option;
}

(* Residual history recording, active only while observability is on:
   the disabled path allocates no ring buffer and costs one atomic read
   (inside [Flags.enabled]) per solve, not per iteration.  When a trace
   file is open, the snapshot is also emitted as a [conv] line tagged
   with the enclosing span (the [robust.<rung>] span when the Robust
   ladder is driving). *)
let history_create meth =
  if Ttsv_obs.Flags.enabled () then Some (Ttsv_obs.History.create ~meth ()) else None

let history_record hist iter res =
  match hist with Some h -> Ttsv_obs.History.record h iter res | None -> ()

let history_finish hist =
  match hist with
  | None -> None
  | Some h ->
    let s = Ttsv_obs.History.snapshot h in
    if Ttsv_obs.Flags.trace_on () then Ttsv_obs.Sink.conv ?span:(Ttsv_obs.Span.current ()) s;
    Some s

let pp_status ppf = function
  | Converged -> Format.fprintf ppf "converged"
  | Iteration_limit -> Format.fprintf ppf "iteration limit reached"
  | Breakdown what -> Format.fprintf ppf "breakdown (%s)" what
  | Stagnated k -> Format.fprintf ppf "stagnated (%d iterations without progress)" k
  | Diverged factor -> Format.fprintf ppf "diverged (residual grew %.3gx)" factor
  | Non_finite where -> Format.fprintf ppf "non-finite values in %s" where
  | Budget_exhausted v -> Format.fprintf ppf "budget exhausted (%a)" Budget.pp_verdict v

let norm_b_floor b = Float.max (Vec.norm2 b) 1e-300

(* ||b - A x|| / ||b|| through the kernels of [cg]'s start test: the
   chunked, pool-independent norm, so the value is bitwise the residual
   [cg] would start from at [x]. *)
let relative_residual ?pool a b x =
  Vec.pnorm2 ?pool (Vec.sub b (Sparse.mul ?pool a x)) /. norm_b_floor b

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

(* Pre-flight scan: a single NaN in the matrix or the right-hand side
   poisons every inner product, so reject it before spending iterations. *)
let check_inputs a b =
  if not (Sparse.all_finite a) then Some "matrix"
  else if not (Array.for_all Float.is_finite b) then Some "rhs"
  else None

let rejected n x0 where =
  let x = match x0 with Some v -> Vec.copy v | None -> Vec.zeros n in
  {
    solution = x;
    iterations = 0;
    residual = Float.nan;
    converged = false;
    status = Non_finite where;
    trace = [||];
    conv = None;
  }

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
   already-resident workers instead of paying a fork/join each. *)
let cg ?(tol = 1e-10) ?max_iter ?x0 ?stagnation_window
    ?(divergence_factor = default_divergence_factor) ?pool ?precond ?budget a b =
  let n = Sparse.rows a in
  if Sparse.cols a <> n then invalid_arg "Iterative.cg: matrix not square";
  if Array.length b <> n then invalid_arg "Iterative.cg: rhs dimension mismatch";
  match check_inputs a b with
  | Some where -> rejected n x0 where
  | None ->
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
        let hist = history_create "cg" in
        history_record hist 0 !res;
        let iter = ref 0 in
        let status = ref (if !res <= tol then Some Converged else None) in
        (* M^-1 r0 is built only when the loop will run: a start that is
           already converged (an exact warm start) never reads it *)
        if !status = None then begin
          let z = Precond.apply ?pool m r in
          let p = Vec.copy z in
          let rz = ref (Vec.pdot ?pool r z) in
          let best = ref !res and best_iter = ref 0 in
          while !status = None && !iter < max_iter do
            match budget_status budget with
            | Some s -> status := Some s
            | None ->
            incr iter;
            let ap = Sparse.mul ?pool a p in
            budget_tick budget;
            Fault.poison "matvec" ap;
            let pap = Vec.pdot ?pool p ap in
            if Float.abs pap < 1e-300 then status := Some (Breakdown "p.Ap underflow")
            else begin
              let alpha = !rz /. pap in
              (* fused: x += alpha p and r -= alpha Ap in one pass *)
              Vec.paxpy2 ?pool alpha p ap x r;
              res := Vec.pnorm2 ?pool r /. nb;
              trace := !res :: !trace;
              history_record hist !iter !res;
              if !res <= tol then status := Some Converged
              else begin
                (match
                   guard ~window:stagnation_window ~growth:divergence_factor best best_iter
                     !iter !res
                 with
                | Some s -> status := Some s
                | None -> ());
                if !status = None then begin
                  let z' = Precond.apply ?pool m r in
                  let rz' = Vec.pdot ?pool r z' in
                  let beta = rz' /. !rz in
                  rz := rz';
                  (* fused: p <- z' + beta p in one pass *)
                  Vec.pxpby ?pool z' beta p
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
        {
          solution = x;
          iterations = !iter;
          residual;
          converged;
          status = (if converged then Converged else status);
          trace = Array.of_list (List.rev !trace);
          conv = history_finish hist;
        })
