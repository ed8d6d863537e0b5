module Vec = Ttsv_numerics.Vec
module Sparse = Ttsv_numerics.Sparse
module Dense = Ttsv_numerics.Dense
module Banded = Ttsv_numerics.Banded
module Iterative = Ttsv_numerics.Iterative
module Precond = Ttsv_numerics.Precond
module Obs_span = Ttsv_obs.Span
module Obs_metrics = Ttsv_obs.Metrics

let m_solves = Obs_metrics.Counter.make "solve.count"
let m_solve_iters = Obs_metrics.Counter.make "solve.iterations"
let m_solve_wall = Obs_metrics.Histogram.make "solve.wall_seconds"

(* one counter per rung, bumped when that rung produces the answer: the
   fleet-level view of which preconditioner actually carries the load *)
let all_rungs = [ Diagnostics.Cg_mg; Diagnostics.Cg_ic0; Diagnostics.Cg; Diagnostics.Direct ]

let m_rung =
  List.map
    (fun r -> (r, Obs_metrics.Counter.make ("precond.rung." ^ Diagnostics.rung_name r)))
    all_rungs

module Budget = Ttsv_parallel.Budget
module Fault = Ttsv_parallel.Fault

type reason = Invalid_input of string list | Exhausted | Deadline_exceeded

type failure = {
  reason : reason;
  diagnostics : Diagnostics.t;
  best : Vec.t option;
  best_residual : float;
}

exception Solve_failed of failure

let pp_reason ppf = function
  | Invalid_input problems ->
    Format.fprintf ppf "invalid input: %s" (String.concat "; " problems)
  | Exhausted -> Format.fprintf ppf "every solver rung failed"
  | Deadline_exceeded ->
    Format.fprintf ppf "budget expired before the ladder converged (best iterate attached)"

let pp_failure ppf f =
  Format.fprintf ppf "@[<v>solve failed: %a@,%a@]" pp_reason f.reason Diagnostics.pp
    f.diagnostics

let default_rungs = [ Diagnostics.Cg_ic0; Diagnostics.Cg; Diagnostics.Direct ]

(* Direct solves are the last resort: accept them at a looser floor than
   the iterative target, since there is nothing left to escalate to and an
   LU residual of ~1e-12 on an ill-conditioned system is still the best
   available answer. *)
let direct_accept tol = Float.max tol 1e-8

(* Largest order for which an O(n^3)/O(n^2)-memory dense fallback is
   still sensible. *)
let dense_limit = 3000

let preflight ?x0 a b =
  let problems = ref [] in
  let push p = problems := p :: !problems in
  let n = Sparse.rows a in
  if Sparse.cols a <> n then
    push (Printf.sprintf "matrix is %dx%d, not square" n (Sparse.cols a));
  if Array.length b <> n then
    push (Printf.sprintf "rhs has dimension %d, expected %d" (Array.length b) n);
  if not (Sparse.all_finite a) then push "matrix contains NaN/Inf entries";
  if not (Vec.all_finite b) then push "rhs contains NaN/Inf entries";
  Option.iter
    (fun x ->
      if Array.length x <> n then
        push (Printf.sprintf "x0 has dimension %d, expected %d" (Array.length x) n);
      if not (Vec.all_finite x) then push "x0 contains NaN/Inf entries")
    x0;
  List.rev !problems

(* the rung's own flat band in [Banded]'s layout, filled by one index loop *)
let band_of_sparse a bw =
  let n = Sparse.rows a and w = (2 * bw) + 1 in
  let band = Array.make (n * w) 0. and row_ptr, col_idx, values = Sparse.csr a in
  for i = 0 to n - 1 do
    for p = row_ptr.(i) to row_ptr.(i + 1) - 1 do
      let k = (i * w) + col_idx.(p) - i + bw in
      band.(k) <- band.(k) +. values.(p)
    done
  done;
  band

(* The direct rung: a pivotless banded LU when the band is narrow enough
   to pay off, falling back to dense LU with partial pivoting when the
   band solve needs pivoting or the band is wide.  Returns the candidate
   solution or the reason there is none. *)
let direct_candidate a =
  let n = Sparse.rows a in
  let bw = Sparse.bandwidth a in
  let banded_ok = n * ((2 * bw) + 1) <= 50_000_000 && (2 * bw) + 1 < n in
  if banded_ok then Ok (`Banded (band_of_sparse a bw, bw))
  else if n > dense_limit then Error (Diagnostics.Skipped "matrix too large for dense fallback")
  else Ok (`Dense (Sparse.to_dense a))

(* the band is this solve's own: factor it in place and copy only [b] *)
let solve_direct a b =
  match direct_candidate a with
  | Error e -> Error e
  | Ok (`Banded (band, bw)) -> (
    let x = Array.copy b in
    match Banded.solve_in_place ~n:(Sparse.rows a) ~bw band x with
    | () -> Ok x
    | exception Dense.Singular -> (
      (* the band needed pivoting; retry densely when affordable *)
      if Sparse.rows a > dense_limit then Error Diagnostics.Singular
      else
        match Dense.solve (Sparse.to_dense a) b with
        | x -> Ok x
        | exception Dense.Singular -> Error Diagnostics.Singular))
  | Ok (`Dense d) -> (
    match Dense.solve d b with x -> Ok x | exception Dense.Singular -> Error Diagnostics.Singular)

let solve ?(tol = 1e-10) ?max_iter ?x0 ?stagnation_window ?pool ?rungs
    ?shape ?budget a b =
  let rungs = Option.value rungs ~default:default_rungs in
  let start = Unix.gettimeofday () in
  match preflight ?x0 a b with
  | _ :: _ as problems ->
    Error
      {
        reason = Invalid_input problems;
        diagnostics = { Diagnostics.empty with wall_time = Unix.gettimeofday () -. start };
        best = None;
        best_residual = Float.nan;
      }
  | [] ->
    let best = ref x0 in
    let best_res = ref Float.infinity in
    let attempts = ref [] in
    let total_iters = ref 0 in
    let trace = ref [||] in
    (* record one attempt, timed from [t0] *)
    let note ?(iterations = 0) ?(residual = Float.nan) rung outcome t0 =
      attempts :=
        { Diagnostics.rung; outcome; iterations; residual; wall_time = Unix.gettimeofday () -. t0 }
        :: !attempts
    in
    let consider x res =
      if Float.is_finite res && res < !best_res then begin
        best := Some x;
        best_res := res
      end
    in
    let finish solved_by residual =
      let wall_time = Unix.gettimeofday () -. start in
      if Ttsv_obs.Flags.enabled () then begin
        Obs_metrics.Counter.incr m_solves;
        (match solved_by with
        | Some rung -> Obs_metrics.Counter.incr (List.assoc rung m_rung)
        | None -> ());
        Obs_metrics.Counter.add m_solve_iters !total_iters;
        Obs_metrics.Histogram.observe m_solve_wall wall_time;
        (* one point event per solve: its value equals this solve's
           Diagnostics.iterations total, which the trace checker and the
           acceptance test cross-validate *)
        if Ttsv_obs.Flags.trace_on () then
          Ttsv_obs.Sink.metric ?span:(Obs_span.current ()) ~kind:"counter"
            ~name:"solve.iterations"
            (Ttsv_obs.Json.Int !total_iters)
      end;
      {
        Diagnostics.attempts = List.rev !attempts;
        solved_by;
        iterations = !total_iters;
        residual;
        trace = !trace;
        wall_time;
      }
    in
    (* Build the preconditioner a rung asks for.  [Error why] means the
       construction itself failed (no grid shape or a hierarchy failure
       for multigrid, IC(0) pivot breakdown at every shift): the rung is
       recorded as Skipped and the ladder demotes without spending a
       single iteration.  Jacobi-CG ([None]) has nothing to build. *)
    let precond_for ?budget rung =
      match rung with
      | Diagnostics.Cg_mg -> (
        match shape with
        | None -> Error "mg: no structured-grid shape"
        | Some shape -> (
          match Precond.mg ?pool ?budget ~shape a with
          | Ok m -> Ok (Some m)
          | Error why -> Error ("mg: " ^ why)))
      | Diagnostics.Cg_ic0 -> (
        match Precond.ic0 ?budget a with
        | Ok m -> Ok (Some m)
        | Error why -> Error ("ic0: " ^ why))
      | Diagnostics.Cg -> Ok None
      | Diagnostics.Direct -> assert false
    in
    let run_iterative ?budget rung =
      let t0 = Unix.gettimeofday () in
      match precond_for ?budget rung with
      | Error why ->
        note rung (Diagnostics.Skipped why) t0;
        None
      | Ok precond ->
        let r =
          Iterative.cg ~tol ?max_iter ?x0:!best ?stagnation_window ?pool
            ?precond ?budget a b
        in
        total_iters := !total_iters + r.Iterative.iterations;
        trace := r.Iterative.trace;
        consider r.Iterative.solution r.Iterative.residual;
        let outcome =
          if r.Iterative.converged then Diagnostics.Success
          else Diagnostics.Iterative_failure r.Iterative.status
        in
        note ~iterations:r.Iterative.iterations ~residual:r.Iterative.residual rung outcome t0;
        if r.Iterative.converged then Some r.Iterative.solution else None
    in
    let run_direct () =
      let t0 = Unix.gettimeofday () in
      match solve_direct a b with
      | Error outcome ->
        note Diagnostics.Direct outcome t0;
        None
      | Ok x ->
        let res = Iterative.relative_residual ?pool a b x in
        consider x res;
        let ok = Float.is_finite res && res <= direct_accept tol in
        trace := [| res |];
        note ~residual:res Diagnostics.Direct
          (if ok then Success else Residual_too_large res)
          t0;
        if ok then Some x else None
    in
    let rec climb = function
      | [] ->
        Error
          {
            reason = Exhausted;
            diagnostics = finish None !best_res;
            best = !best;
            best_residual = !best_res;
          }
      | rung :: rest -> (
        match Option.bind budget Budget.check with
        | Some _ ->
          (* the global budget is spent: stop the ladder here — before
             the (non-interruptible) direct rung in particular — and
             surface the best iterate reached so far *)
          Error
            {
              reason = Deadline_exceeded;
              diagnostics = finish None !best_res;
              best = !best;
              best_residual = !best_res;
            }
        | None ->
          (* each rung gets an even share of the remaining wall-clock:
             a stagnating IC(0) attempt cannot starve the cheaper rungs
             (or the direct fallback) of their chance *)
          let rung_budget =
            Option.map (fun b -> Budget.split b ~ways:(1 + List.length rest)) budget
          in
          let t0 = Unix.gettimeofday () in
          let solution =
            match
              Obs_span.with_
                ~name:("robust." ^ Diagnostics.rung_name rung)
                (fun () ->
                  match rung with
                  | Diagnostics.Direct -> run_direct ()
                  | _ -> run_iterative ?budget:rung_budget rung)
            with
            | s -> s
            | exception Fault.Injected site ->
              (* an injected fault escaped to the ladder (possible for
                 owner-side probes): contain it as a skipped attempt and
                 demote, upholding the no-uncaught-exception contract *)
              note rung (Diagnostics.Skipped ("injected fault at " ^ site)) t0;
              None
            | exception Budget.Expired v ->
              note rung
                (Diagnostics.Skipped (Format.asprintf "budget expired (%a)" Budget.pp_verdict v))
                t0;
              None
          in
          match solution with
          | Some x ->
            let res = (List.hd !attempts).Diagnostics.residual in
            Ok (x, finish (Some rung) res)
          | None -> climb rest)
    in
    (* a start that already meets [tol] (an exact warm start) is the
       first rung's answer at 0 iterations: no preconditioner is built
       and no budget is polled, so even an expired deadline gets it.
       The answer is [x0] itself, not a copy: no caller writes into a
       solution, and the copy was a fresh n-vector on the major heap
       per exact hit *)
    let converged_start =
      match (rungs, x0) with
      | first :: _, Some x ->
        let t0 = Unix.gettimeofday () in
        let res = Iterative.relative_residual ?pool a b x in
        if res <= tol then Some (first, x, res, t0) else None
      | _ -> None
    in
    match converged_start with
    | None -> climb rungs
    | Some (rung, x, res, t0) ->
      trace := [| res |];
      note ~residual:res rung Diagnostics.Success t0;
      Ok (x, finish (Some rung) res)

let solve_exn ?tol ?max_iter ?x0 ?stagnation_window ?pool ?rungs ?shape
    ?budget a b =
  match
    solve ?tol ?max_iter ?x0 ?stagnation_window ?pool ?rungs ?shape ?budget
      a b
  with
  | Ok r -> r
  | Error f -> raise (Solve_failed f)
