(* Geometric multigrid hierarchies for the structured tensor grids.

   Setup (strength analysis, transfers, Galerkin products, line
   factorizations, coarse LU) runs sequentially: it is a one-time cost
   per matrix and keeping the duplicate-summation order fixed makes the
   hierarchy — and therefore every cycle — bitwise identical whatever
   pool is later supplied.  The cycles themselves are disjoint-slot
   maps, [Sparse.mul]s and independent per-line solves, which carry the
   pool determinism contract already. *)

module Pool = Ttsv_parallel.Pool
module Budget = Ttsv_parallel.Budget

type transfer = {
  p : Sparse.t;  (* prolongation: level-l cells x level-(l+1) cells *)
  pt : Sparse.t; (* restriction, the stored transpose *)
}

(* banded LU factors of every grid line along one dimension: the block
   diagonal of A whose blocks are the lines.  [fact] holds, line after
   line, [llen] rows of the [2 * lband + 1]-wide band (factored in
   place, multipliers below the diagonal). *)
type lines = {
  lstride : int;     (* flat-index step between consecutive line cells *)
  llen : int;        (* cells per line *)
  lband : int;       (* within-line half bandwidth *)
  starts : int array; (* first cell of each line *)
  fact : float array;
}

(* the smoother's preconditioner M: line-block Jacobi when the level
   has an uncoarsened dimension to run lines along (the robust partner
   of semicoarsening on locally anisotropic grids), the inverse
   diagonal otherwise *)
type smoother = Point of Vec.t | Lines of lines

type level = {
  a : Sparse.t;
  shape : int array;
  sm : smoother;
  lmax : float; (* power-iteration estimate of the top eigenvalue of M^-1 A *)
  down : transfer option; (* [None] on the coarsest level *)
}

type t = {
  levels : level array; (* finest first *)
  coarse_lu : Dense.lu;
  nu : int;
  budget : Budget.t option; (* captured at build time, polled per level *)
}

let default_coarse_cap = 200
let default_max_levels = 32
let chunk = 2048
let line_chunk = 4
let cells shape = Array.fold_left ( * ) 1 shape

(* decode a flat cell index into per-dimension coordinates; the first
   dimension varies fastest, matching [Grid.index] / [Grid3.index] *)
let decode shape idx out =
  let k = ref idx in
  Array.iteri
    (fun d nd ->
      out.(d) <- !k mod nd;
      k := !k / nd)
    shape

(* per-dimension coupling strength: total |off-diagonal| mass between
   cells exactly one step apart along that dimension.  Entries that are
   not single-step neighbours (Galerkin coarse stencils grow corner and
   distance-2 links) vote for no dimension — the one-step entries always
   dominate them, so the heuristic stays sound down the hierarchy. *)
let coupling_strengths a shape =
  let d = Array.length shape in
  let strength = Array.make d 0. in
  let ci = Array.make d 0 and cj = Array.make d 0 in
  for i = 0 to Sparse.rows a - 1 do
    decode shape i ci;
    Sparse.iter_row a i (fun j v ->
        if j <> i then begin
          decode shape j cj;
          let dim = ref (-1) and single = ref true in
          for k = 0 to d - 1 do
            match abs (ci.(k) - cj.(k)) with
            | 0 -> ()
            | 1 -> if !dim >= 0 then single := false else dim := k
            | _ -> single := false
          done;
          if !single && !dim >= 0 then
            strength.(!dim) <- strength.(!dim) +. Float.abs v
        end)
  done;
  strength

(* classic semicoarsening: coarsen only the strongest-coupled
   dimension.  On the r-z grids the graded radial spacings make the
   radial couplings dwarf the axial ones, so the radial extent shrinks
   level by level while the axial direction rides along at full
   resolution (the line smoother runs down it).  Coarsening every
   dimension at once was measured an order of magnitude worse on those
   grids — error components that are smooth in the strong dimension but
   oscillatory in a locally strong weak dimension are sampled wrongly.
   An extent guard keeps the vote honest: once a dimension has been
   coarsened under 1/16 of the largest remaining extent, halving it
   further no longer shrinks the problem yet still piles interpolation
   error onto the hardest-graded cells (measured: the [12x334]->[6x334]
   step alone pushed the two-grid contraction from 0.47 to 0.93), so it
   drops out of the vote and coarsening moves to the next-strongest
   dimension — typically the axial one.  A coupling-free matrix (all
   strengths zero) still picks a dimension with extent > 1, which keeps
   the hierarchy shrinking. *)
let semicoarsen_mask shape strength =
  let d = Array.length shape in
  let emax = Array.fold_left Stdlib.max 1 shape in
  let eligible k = shape.(k) > 1 && 16 * shape.(k) > emax in
  let best = ref (-1) in
  for k = 0 to d - 1 do
    if eligible k && (!best < 0 || strength.(k) > strength.(!best)) then best := k
  done;
  if !best < 0 then
    (* every remaining dimension is tiny relative to the largest — fall
       back to plain strongest-dimension coarsening *)
    for k = 0 to d - 1 do
      if shape.(k) > 1 && (!best < 0 || strength.(k) > strength.(!best)) then best := k
    done;
  Array.init d (fun k -> k = !best)

(* cell-centred prolongation by two with operator-induced weights:
   along each coarsened dimension a fine cell is interpolated from its
   parent coarse cell and the adjacent coarse cell on the side it sits
   on, weighted by the fine-grid couplings toward each — the couplings
   encode both the (strongly graded) spacings and the conductivity
   jumps, which fixed 3/4-1/4 positional weights get badly wrong on
   these meshes.  The side weight is capped at 1/2 so every coarse cell
   dominates its home children: P keeps full column rank and the
   Galerkin product stays SPD.  Weights tensor-multiply across
   dimensions; a clamped boundary gives the parent the full weight. *)
let prolongation a fshape mask =
  let d = Array.length fshape in
  let cshape =
    Array.init d (fun k -> if mask.(k) then (fshape.(k) + 1) / 2 else fshape.(k))
  in
  let fstride = Array.make d 1 and cstride = Array.make d 1 in
  for k = 1 to d - 1 do
    fstride.(k) <- fstride.(k - 1) * fshape.(k - 1);
    cstride.(k) <- cstride.(k - 1) * cshape.(k - 1)
  done;
  let nf = cells fshape in
  let b = Sparse.builder ~hint:(2 * nf) nf (cells cshape) in
  let ci = Array.make d 0 in
  (* |coupling| from fine cell [i] to its dim-k neighbour [step] away *)
  let coupling i k step =
    let c = ci.(k) + step in
    if c < 0 || c >= fshape.(k) then 0.
    else Float.abs (Sparse.get a i (i + (step * fstride.(k))))
  in
  for i = 0 to nf - 1 do
    decode fshape i ci;
    let rec emit k col w =
      if k = d then Sparse.add b i col w
      else if not mask.(k) then emit (k + 1) (col + (ci.(k) * cstride.(k))) w
      else begin
        let home = ci.(k) / 2 in
        let to_side = if ci.(k) land 1 = 0 then -1 else 1 in
        let side = home + to_side in
        if side < 0 || side >= cshape.(k) then
          emit (k + 1) (col + (home * cstride.(k))) w
        else begin
          let c_side = coupling i k to_side and c_home = coupling i k (-to_side) in
          let total = c_side +. c_home in
          let w_side =
            if Float.is_finite total && total > 0. then
              Float.min 0.5 (c_side /. total)
            else 0.25
          in
          emit (k + 1) (col + (home * cstride.(k))) (w *. (1. -. w_side));
          emit (k + 1) (col + (side * cstride.(k))) (w *. w_side)
        end
      end
    in
    emit 0 0 1.
  done;
  (Sparse.finalize b, cshape)

(* Ac = P^T A P.  The product [w_I * w_J] is computed before scaling by
   [v] so the (I, J) and (J, I) buckets of a symmetric A receive
   bitwise-equal contributions; summation order inside a bucket still
   differs, so coarse operators are symmetric to rounding, not exactly
   — CG only ever sees the cycle output, which is built from the
   operator as stored, so determinism is unaffected. *)
let galerkin p a =
  let row_ptr, col_idx, values = Sparse.csr p in
  let nc = Sparse.cols p in
  let b = Sparse.builder ~hint:(4 * Sparse.nnz a) nc nc in
  for i = 0 to Sparse.rows a - 1 do
    Sparse.iter_row a i (fun j v ->
        for ki = row_ptr.(i) to row_ptr.(i + 1) - 1 do
          for kj = row_ptr.(j) to row_ptr.(j + 1) - 1 do
            Sparse.add b col_idx.(ki) col_idx.(kj)
              (v *. (values.(ki) *. values.(kj)))
          done
        done)
  done;
  Sparse.finalize b

let inverted_diagonal a =
  let d = Sparse.diagonal a in
  if Array.exists (fun di -> Float.abs di < 1e-300) d then
    Error "zero diagonal entry"
  else Ok (Array.map (fun di -> 1. /. di) d)

(* extract and factor (banded LU, no pivoting) every line along
   [line_dim]: the uniform smoother for semicoarsening — a damped
   line solve reduces every mode that is oscillatory along the
   coarsened dimension by a bounded factor whatever the local
   anisotropy, which point smoothers cannot do on grids whose strong
   direction varies from region to region (the liner annulus and the
   thin stacked layers here).  Returns [None] when a line hits a
   near-zero pivot or the within-line band covers the whole line, and
   the caller falls back to the point smoother. *)
let build_lines a shape line_dim =
  let d = Array.length shape in
  let len = shape.(line_dim) in
  let stride = ref 1 in
  for k = 0 to line_dim - 1 do
    stride := !stride * shape.(k)
  done;
  let stride = !stride in
  let n = Sparse.rows a in
  let count = n / len in
  let starts = Array.make count 0 in
  let ci = Array.make d 0 and cj = Array.make d 0 in
  let pos = ref 0 and band = ref 1 in
  for i = 0 to n - 1 do
    decode shape i ci;
    if ci.(line_dim) = 0 then begin
      starts.(!pos) <- i;
      incr pos
    end;
    Sparse.iter_row a i (fun j _ ->
        if j <> i then begin
          decode shape j cj;
          let inline = ref true in
          for k = 0 to d - 1 do
            if k <> line_dim && ci.(k) <> cj.(k) then inline := false
          done;
          if !inline then band := max !band (abs (ci.(line_dim) - cj.(line_dim)))
        end)
  done;
  let b = !band in
  if b >= len then None
  else begin
    let w = (2 * b) + 1 in
    let fact = Array.make (count * len * w) 0. in
    let ok = ref true in
    (let s = ref 0 in
     while !ok && !s < count do
       let base = !s * len * w in
       let i0 = starts.(!s) in
       for t = 0 to len - 1 do
         let i = i0 + (t * stride) in
         for u = -b to b do
           if t + u >= 0 && t + u < len then
             fact.(base + (t * w) + b + u) <- Sparse.get a i (i + (u * stride))
         done
       done;
       (try
          for c = 0 to len - 1 do
            let piv = fact.(base + (c * w) + b) in
            if not (Float.is_finite piv) || Float.abs piv < 1e-300 then raise Exit;
            for r = c + 1 to min (c + b) (len - 1) do
              let off = r - c in
              let m = fact.(base + (r * w) + b - off) /. piv in
              fact.(base + (r * w) + b - off) <- m;
              for k = 1 to b do
                fact.(base + (r * w) + b - off + k) <-
                  fact.(base + (r * w) + b - off + k)
                  -. (m *. fact.(base + (c * w) + b + k))
              done
            done
          done
        with Exit -> ok := false);
       incr s
     done);
    if !ok then Some { lstride = stride; llen = len; lband = b; starts; fact }
    else None
  end

(* z = M^-1 src: a disjoint-slot scaling for the point smoother, one
   independent banded solve per line for the line smoother — both
   bitwise deterministic for any pool *)
let apply_sm ?pool sm src =
  let n = Array.length src in
  let pl = Option.value pool ~default:Pool.seq in
  match sm with
  | Point inv ->
    let z = Array.make n 0. in
    Pool.for_chunks ~chunk pl n (fun ~lo ~hi ->
        for i = lo to hi - 1 do
          z.(i) <- inv.(i) *. src.(i)
        done);
    z
  | Lines l ->
    let z = Array.copy src in
    let b = l.lband in
    let w = (2 * b) + 1 in
    Pool.for_chunks ~chunk:line_chunk pl (Array.length l.starts) (fun ~lo ~hi ->
        for s = lo to hi - 1 do
          let base = s * l.llen * w in
          let i0 = l.starts.(s) in
          for t = 0 to l.llen - 1 do
            let acc = ref z.(i0 + (t * l.lstride)) in
            for off = 1 to min b t do
              acc :=
                !acc
                -. (l.fact.(base + (t * w) + b - off)
                   *. z.(i0 + ((t - off) * l.lstride)))
            done;
            z.(i0 + (t * l.lstride)) <- !acc
          done;
          for t = l.llen - 1 downto 0 do
            let acc = ref z.(i0 + (t * l.lstride)) in
            for k = 1 to min b (l.llen - 1 - t) do
              acc :=
                !acc
                -. (l.fact.(base + (t * w) + b + k)
                   *. z.(i0 + ((t + k) * l.lstride)))
            done;
            z.(i0 + (t * l.lstride)) <- !acc /. l.fact.(base + (t * w) + b)
          done
        done);
    z

(* largest eigenvalue of M^-1 A by power iteration.  M^-1 A is
   self-adjoint in the A-inner product, so the Rayleigh quotient is
   taken there — [(Av)·(M^-1 Av) / v·(Av)] — where it increases
   monotonically toward the true lambda_max instead of wobbling below it
   the way the Euclidean quotient of this non-normal matrix does: a
   Chebyshev interval clipped to an {e under}estimate amplifies the top
   modes and can make the whole cycle divergent, so the bias direction
   matters more than the rate.  Started from an oscillatory
   deterministic vector seeded with a slow index ramp (the dominant
   eigenvector of a diffusion stencil is high-frequency, but pure ±1
   alternation can sit in an invariant subspace of a symmetric line
   block); callers pad the estimate with a safety factor before
   clipping the Chebyshev interval to it. *)
let estimate_lmax a sm =
  let n = Sparse.rows a in
  let normalize u =
    let s = ref 0. in
    Array.iter (fun x -> s := !s +. (x *. x)) u;
    let nrm = sqrt !s in
    if nrm > 0. then Array.map (fun x -> x /. nrm) u else u
  in
  let v =
    ref
      (normalize
         (Array.init n (fun i ->
              let sign = if i land 1 = 0 then 1. else -1. in
              sign *. (1. +. (float_of_int (i mod 17) /. 17.)))))
  in
  let est = ref 0. in
  for _ = 1 to 20 do
    let av = Sparse.mat_vec a !v in
    let z = apply_sm sm av in
    let num = Vec.dot av z and den = Vec.dot !v av in
    if Float.is_finite num && Float.is_finite den && den > 0. && num > 0. then
      est := Float.max !est (num /. den);
    v := normalize z
  done;
  if !est > 0. then !est
  else 2. (* block-Jacobi-scaled diffusion operators live in (0, 2] *)

(* a level's smoother: lines along the strongest-coupled dimension that
   is NOT being coarsened (so the line solves stay full resolution while
   the coarsening shrinks the other), the point diagonal when every
   other dimension is already flat *)
let make_smoother a shape strength mask inv_diag =
  let d = Array.length shape in
  let ldim = ref (-1) in
  for k = 0 to d - 1 do
    if (not mask.(k)) && shape.(k) > 1
       && (!ldim < 0 || strength.(k) > strength.(!ldim))
    then ldim := k
  done;
  if !ldim < 0 then Point inv_diag
  else
    match build_lines a shape !ldim with
    | Some l -> Lines l
    | None -> Point inv_diag

let build ?pool ?budget ?(max_levels = default_max_levels)
    ?(coarse_cap = default_coarse_cap) ?(nu = 2) ~shape a =
  let _ : Pool.t option = pool in
  if nu < 1 then invalid_arg "Multigrid.build: nu must be >= 1";
  if max_levels < 1 then invalid_arg "Multigrid.build: max_levels must be >= 1";
  if coarse_cap < 1 then invalid_arg "Multigrid.build: coarse_cap must be >= 1";
  let n = Sparse.rows a in
  if Sparse.cols a <> n then Error "matrix is not square"
  else if Array.length shape = 0 then Error "empty grid shape"
  else if Array.exists (fun s -> s < 1) shape then Error "grid extents must be >= 1"
  else if cells shape <> n then
    Error
      (Printf.sprintf "grid shape (%d cells) does not match matrix order %d"
         (cells shape) n)
  else
    (* the one-time hierarchy construction (coarsening, Galerkin
       products, line factorisations) under its own span, so profiles
       separate setup cost from per-cycle cost *)
    Ttsv_obs.Span.with_ ~name:"mg.setup" @@ fun () ->
    begin
    let exception Expired of Budget.verdict in
    let poll () =
      match Option.bind budget Budget.check with
      | Some v -> raise (Expired v)
      | None -> ()
    in
    let rec descend acc a shape remaining =
      poll ();
      match inverted_diagonal a with
      | Error _ as e -> e
      | Ok inv_diag ->
        if Sparse.rows a <= coarse_cap || remaining <= 1 then
          (* the coarsest level is solved by LU: its smoother fields are
             never exercised, so the cheap point fallback will do *)
          Ok (List.rev ({ a; shape; sm = Point inv_diag; lmax = 2.; down = None } :: acc))
        else begin
          let strength = coupling_strengths a shape in
          let mask = semicoarsen_mask shape strength in
          if not (Array.exists Fun.id mask) then
            Ok
              (List.rev
                 ({ a; shape; sm = Point inv_diag; lmax = 2.; down = None } :: acc))
          else begin
            let sm = make_smoother a shape strength mask inv_diag in
            let lmax = estimate_lmax a sm in
            let p, cshape = prolongation a shape mask in
            let pt = Sparse.transpose p in
            let ac = galerkin p a in
            descend
              ({ a; shape; sm; lmax; down = Some { p; pt } } :: acc)
              ac cshape (remaining - 1)
          end
        end
    in
    match descend [] a shape max_levels with
    | Error _ as e -> e
    | exception Expired v ->
      Error (Format.asprintf "budget expired (%a)" Budget.pp_verdict v)
    | Ok levels -> (
      let levels = Array.of_list levels in
      let coarsest = levels.(Array.length levels - 1) in
      match Dense.lu_factor (Sparse.to_dense coarsest.a) with
      | lu -> Ok { levels; coarse_lu = lu; nu; budget }
      | exception Dense.Singular -> Error "singular coarsest-level operator")
  end

(* degree-[deg] Chebyshev smoother on the interval
   [lmax / 4, 1.1 lmax] of M^-1 A (Saad, Iterative Methods, alg. 12.1,
   preconditioned by the level's M).  The polynomial's coefficients
   depend only on the interval, never on the data, so the smoother is a
   fixed polynomial in M^-1 A — A-self-adjoint, which is what keeps the
   V(nu, nu) cycle symmetric positive definite.  [x] is updated in
   place; when [from_zero] the initial residual is [b] itself and the
   first matvec is skipped. *)
let cheb_smooth ?pool t lev ~from_zero x b deg =
  Ttsv_obs.Span.with_ ~name:"mg.smooth" @@ fun () ->
  let n = Array.length x in
  let pl = Option.value pool ~default:Pool.seq in
  let beta = 1.1 *. lev.lmax in
  let alpha = beta /. 4. in
  let theta = (beta +. alpha) /. 2. and delta = (beta -. alpha) /. 2. in
  let sigma = theta /. delta in
  let r =
    if from_zero then Array.copy b
    else begin
      Option.iter (fun bd -> Budget.tick bd) t.budget;
      let ax = Sparse.mul ?pool lev.a x in
      let r = Array.make n 0. in
      Pool.for_chunks ~chunk pl n (fun ~lo ~hi ->
          for i = lo to hi - 1 do
            r.(i) <- b.(i) -. ax.(i)
          done);
      r
    end
  in
  let d = apply_sm ?pool lev.sm r in
  Pool.for_chunks ~chunk pl n (fun ~lo ~hi ->
      for i = lo to hi - 1 do
        d.(i) <- d.(i) /. theta
      done);
  let rho = ref (1. /. sigma) in
  for _ = 2 to deg do
    Option.iter (fun bd -> Budget.tick bd) t.budget;
    let ad = Sparse.mul ?pool lev.a d in
    Pool.for_chunks ~chunk pl n (fun ~lo ~hi ->
        for i = lo to hi - 1 do
          x.(i) <- x.(i) +. d.(i);
          r.(i) <- r.(i) -. ad.(i)
        done);
    let z = apply_sm ?pool lev.sm r in
    let rho' = 1. /. ((2. *. sigma) -. !rho) in
    let k1 = rho' *. !rho and k2 = 2. *. rho' /. delta in
    Pool.for_chunks ~chunk pl n (fun ~lo ~hi ->
        for i = lo to hi - 1 do
          d.(i) <- (k1 *. d.(i)) +. (k2 *. z.(i))
        done);
    rho := rho'
  done;
  Pool.for_chunks ~chunk pl n (fun ~lo ~hi ->
      for i = lo to hi - 1 do
        x.(i) <- x.(i) +. d.(i)
      done)

let rec vcycle ?pool t l r =
  (match t.budget with Some b -> Budget.check_exn b | None -> ());
  if l = Array.length t.levels - 1 then Dense.lu_solve t.coarse_lu r
  else begin
    let lev = t.levels.(l) in
    let n = Array.length r in
    let pl = Option.value pool ~default:Pool.seq in
    (* pre-smooth from a zero initial guess: the initial residual is r
       itself, saving the first matvec *)
    let x = Array.make n 0. in
    cheb_smooth ?pool t lev ~from_zero:true x r t.nu;
    (* coarse-grid correction on the smoothed residual *)
    Option.iter (fun bd -> Budget.tick bd) t.budget;
    let ax = Sparse.mul ?pool lev.a x in
    let res = Array.make n 0. in
    Pool.for_chunks ~chunk pl n (fun ~lo ~hi ->
        for i = lo to hi - 1 do
          res.(i) <- r.(i) -. ax.(i)
        done);
    let tr = match lev.down with Some tr -> tr | None -> assert false in
    let rc = Sparse.mul ?pool tr.pt res in
    let ec = vcycle ?pool t (l + 1) rc in
    let e = Sparse.mul ?pool tr.p ec in
    Pool.for_chunks ~chunk pl n (fun ~lo ~hi ->
        for i = lo to hi - 1 do
          x.(i) <- x.(i) +. e.(i)
        done);
    (* post-smooth with the same polynomial as pre-smoothing: the cycle
       operator stays symmetric positive definite *)
    cheb_smooth ?pool t lev ~from_zero:false x r t.nu;
    x
  end

let cycle ?pool t r =
  if Array.length r <> Sparse.rows t.levels.(0).a then
    invalid_arg "Multigrid.cycle: dimension mismatch";
  Ttsv_obs.Span.with_ ~name:"mg.cycle" @@ fun () -> vcycle ?pool t 0 r

let num_levels t = Array.length t.levels
let level_shape t l = Array.copy t.levels.(l).shape
let level_matrix t l = t.levels.(l).a

let transfer t level what =
  if level < 0 || level >= Array.length t.levels - 1 then
    invalid_arg (Printf.sprintf "Multigrid.%s: no coarser level below %d" what level)
  else match t.levels.(level).down with Some tr -> tr | None -> assert false

let restrict ?pool t ~level v = Sparse.mul ?pool (transfer t level "restrict").pt v
let prolong ?pool t ~level v = Sparse.mul ?pool (transfer t level "prolong").p v

let smooth ?pool t ~level ~sweeps x b =
  if sweeps < 0 then invalid_arg "Multigrid.smooth: sweeps must be >= 0";
  let lev = t.levels.(level) in
  let x = Array.copy x in
  if sweeps > 0 then cheb_smooth ?pool t lev ~from_zero:false x b sweeps;
  x
