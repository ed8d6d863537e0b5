module Pool = Ttsv_parallel.Pool
module Budget = Ttsv_parallel.Budget
module Fault = Ttsv_parallel.Fault

(* Constructors are fallible by contract, so the chaos "precond" fault
   site maps onto the existing Error channel: callers (the Robust
   ladder) already demote on any construction failure. *)
let injected () = Fault.fire "precond"
let injected_error = "injected construction fault"

type kind = Jacobi | Ic0 of float | Mg of int

type t = {
  kind : kind;
  dim : int;
  apply_fn : ?pool:Pool.t -> Vec.t -> Vec.t;
}

let name t =
  match t.kind with Jacobi -> "jacobi" | Ic0 _ -> "ic0" | Mg _ -> "mg"

let dim t = t.dim
let ic0_shift t = match t.kind with Ic0 s -> Some s | _ -> None
let mg_levels t = match t.kind with Mg l -> Some l | _ -> None

let apply ?pool t r =
  if Array.length r <> t.dim then
    invalid_arg
      (Printf.sprintf "Precond.apply: vector has dimension %d, expected %d" (Array.length r)
         t.dim);
  t.apply_fn ?pool r

(* ------------------------------------------------------------- Jacobi *)

(* The diagonal fallback: never fails.  Zero/denormal diagonal entries
   map to 1 (identity on that component) so a structurally defective
   matrix still gets an answer from CG's own guards rather than a
   division blow-up here. *)
let jacobi_of_diagonal d =
  let n = Array.length d in
  let inv = Array.map (fun di -> if Float.abs di > 1e-300 then 1. /. di else 1.) d in
  let apply_fn ?pool r =
    let z = Array.make n 0. in
    Pool.for_chunks ~chunk:2048
      (Option.value pool ~default:Pool.seq)
      n
      (fun ~lo ~hi ->
        for i = lo to hi - 1 do
          z.(i) <- inv.(i) *. r.(i)
        done);
    z
  in
  { kind = Jacobi; dim = n; apply_fn }

let jacobi a = jacobi_of_diagonal (Sparse.diagonal a)

(* -------------------------------------------------------------- IC(0) *)

let default_shifts = [ 0.; 1e-3; 1e-2; 1e-1; 1. ]

(* Incomplete Cholesky with zero fill: L has exactly the lower-triangle
   sparsity of A.  Entries are produced row by row,

      L[i,j] = (A[i,j] - sum_{k<j} L[i,k] L[j,k]) / L[j,j]   (j < i)
      L[i,i] = sqrt(A[i,i] (1 + shift) - sum_{k<i} L[i,k]^2)

   with the inner sums computed as sorted-merge intersections of the two
   CSR rows.  A non-positive pivot is the classical IC(0) breakdown on
   matrices that are SPD but not H-matrices; the standard remedy is to
   refactor with a progressively larger relative diagonal shift
   (Manteuffel 1980), which this constructor does internally before
   giving up. *)
let ic0 ?(shifts = default_shifts) ?budget a =
  let n = Sparse.rows a in
  if injected () then Error injected_error
  else if Sparse.cols a <> n then Error "matrix not square"
  else begin
    let row_ptr, col_idx, values = Sparse.csr a in
    (* lower-triangular pattern, diagonal included and required *)
    let l_ptr = Array.make (n + 1) 0 in
    let count = ref 0 in
    let missing_diag = ref (-1) in
    for i = 0 to n - 1 do
      l_ptr.(i) <- !count;
      let has_diag = ref false in
      for k = row_ptr.(i) to row_ptr.(i + 1) - 1 do
        let j = col_idx.(k) in
        if j < i then incr count
        else if j = i then begin
          has_diag := true;
          incr count
        end
      done;
      if (not !has_diag) && !missing_diag < 0 then missing_diag := i
    done;
    l_ptr.(n) <- !count;
    if !missing_diag >= 0 then
      Error (Printf.sprintf "row %d has no stored diagonal entry" !missing_diag)
    else begin
      let nnz_l = !count in
      let l_col = Array.make nnz_l 0 in
      let a_low = Array.make nnz_l 0. in
      let pos = ref 0 in
      for i = 0 to n - 1 do
        for k = row_ptr.(i) to row_ptr.(i + 1) - 1 do
          let j = col_idx.(k) in
          if j <= i then begin
            l_col.(!pos) <- j;
            a_low.(!pos) <- values.(k);
            incr pos
          end
        done
      done;
      (* columns sorted within each row, so the diagonal of row i is the
         last entry of its lower pattern: index l_ptr.(i+1) - 1 *)
      let l_val = Array.make nnz_l 0. in
      let factor shift =
        let ok = ref true in
        let i = ref 0 in
        while !ok && !i < n do
          let rlo = l_ptr.(!i) and rhi = l_ptr.(!i + 1) in
          let k = ref rlo in
          while !ok && !k < rhi do
            let j = l_col.(!k) in
            (* s = <row i, row j> over shared columns < j *)
            let s = ref 0. in
            let pa = ref rlo and pb = ref l_ptr.(j) in
            let alim = !k and blim = l_ptr.(j + 1) - 1 in
            while !pa < alim && !pb < blim do
              let ca = l_col.(!pa) and cb = l_col.(!pb) in
              if ca = cb then begin
                s := !s +. (l_val.(!pa) *. l_val.(!pb));
                incr pa;
                incr pb
              end
              else if ca < cb then incr pa
              else incr pb
            done;
            if j < !i then l_val.(!k) <- (a_low.(!k) -. !s) /. l_val.(l_ptr.(j + 1) - 1)
            else begin
              let piv = (a_low.(!k) *. (1. +. shift)) -. !s in
              if piv > 1e-300 then l_val.(!k) <- sqrt piv else ok := false
            end;
            incr k
          done;
          incr i
        done;
        !ok
      in
      (* each shift retry is a full O(nnz) refactorization, so the budget
         is polled between them: an expired budget reports as a
         construction failure and the ladder demotes to a cheaper rung *)
      let rec attempt = function
        | [] -> Error "non-positive pivot at every diagonal shift"
        | shift :: rest -> (
          match Option.bind budget Budget.check with
          | Some v -> Error (Format.asprintf "budget expired (%a)" Budget.pp_verdict v)
          | None -> if factor shift then Ok shift else attempt rest)
      in
      match attempt shifts with
      | Error _ as e -> e
      | Ok shift ->
        let apply_fn ?pool:_ r =
          (* forward substitution: L y = r *)
          let y = Array.make n 0. in
          for i = 0 to n - 1 do
            let acc = ref r.(i) in
            let di = l_ptr.(i + 1) - 1 in
            for k = l_ptr.(i) to di - 1 do
              acc := !acc -. (l_val.(k) *. y.(l_col.(k)))
            done;
            y.(i) <- !acc /. l_val.(di)
          done;
          (* backward substitution: L^T z = y, via column saxpy on L's
             rows (in place on y) *)
          for i = n - 1 downto 0 do
            let di = l_ptr.(i + 1) - 1 in
            let zi = y.(i) /. l_val.(di) in
            y.(i) <- zi;
            for k = l_ptr.(i) to di - 1 do
              let j = l_col.(k) in
              y.(j) <- y.(j) -. (l_val.(k) *. zi)
            done
          done;
          y
        in
        Ok { kind = Ic0 shift; dim = n; apply_fn }
    end
  end

(* ---------------------------------------------------------- multigrid *)

(* One symmetric V-cycle per application.  The hierarchy setup can fail
   (shape mismatch, zero diagonal, singular coarse operator, expired
   budget) and doubles as the "precond" chaos site, exactly like the
   other fallible constructors; the budget is captured by the hierarchy
   and keeps being polled inside every cycle, so an expiry mid-V-cycle
   surfaces as [Budget.Expired] from [apply]. *)
let mg ?pool ?budget ~shape a =
  if injected () then Error injected_error
  else
    match Multigrid.build ?pool ?budget ~shape a with
    | Error _ as e -> e
    | Ok hierarchy ->
      let apply_fn ?pool r = Multigrid.cycle ?pool hierarchy r in
      Ok { kind = Mg (Multigrid.num_levels hierarchy); dim = Sparse.rows a; apply_fn }
