type t = {
  nrows : int;
  ncols : int;
  row_ptr : int array; (* length nrows + 1 *)
  col_idx : int array; (* length nnz, sorted within each row *)
  values : float array;
}

type builder = {
  b_rows : int;
  b_cols : int;
  mutable n : int;
  mutable ri : int array;
  mutable ci : int array;
  mutable vs : float array;
}

let builder ?(hint = 64) nrows ncols =
  let hint = Stdlib.max hint 1 in
  { b_rows = nrows; b_cols = ncols; n = 0; ri = Array.make hint 0; ci = Array.make hint 0; vs = Array.make hint 0. }

let grow b =
  let cap = Array.length b.ri in
  let cap' = 2 * cap in
  let extend a fill =
    let a' = Array.make cap' fill in
    Array.blit a 0 a' 0 cap;
    a'
  in
  b.ri <- extend b.ri 0;
  b.ci <- extend b.ci 0;
  b.vs <- extend b.vs 0.

let add b i j x =
  if i < 0 || i >= b.b_rows || j < 0 || j >= b.b_cols then
    invalid_arg (Printf.sprintf "Sparse.add: index (%d,%d) out of %dx%d" i j b.b_rows b.b_cols);
  if b.n = Array.length b.ri then grow b;
  b.ri.(b.n) <- i;
  b.ci.(b.n) <- j;
  b.vs.(b.n) <- x;
  b.n <- b.n + 1

(* Two-pass counting sort by row, then per-row sort by column with duplicate
   summation. *)
let finalize b =
  let nrows = b.b_rows and ncols = b.b_cols in
  let counts = Array.make (nrows + 1) 0 in
  for k = 0 to b.n - 1 do
    counts.(b.ri.(k) + 1) <- counts.(b.ri.(k) + 1) + 1
  done;
  for i = 1 to nrows do
    counts.(i) <- counts.(i) + counts.(i - 1)
  done;
  let fill = Array.copy counts in
  let cols_tmp = Array.make b.n 0 in
  let vals_tmp = Array.make b.n 0. in
  for k = 0 to b.n - 1 do
    let r = b.ri.(k) in
    let pos = fill.(r) in
    cols_tmp.(pos) <- b.ci.(k);
    vals_tmp.(pos) <- b.vs.(k);
    fill.(r) <- pos + 1
  done;
  (* per-row: sort by column and merge duplicates *)
  let row_ptr = Array.make (nrows + 1) 0 in
  let col_out = Array.make b.n 0 in
  let val_out = Array.make b.n 0. in
  let out = ref 0 in
  for r = 0 to nrows - 1 do
    row_ptr.(r) <- !out;
    let lo = counts.(r) and hi = fill.(r) in
    let len = hi - lo in
    if len > 0 then begin
      let order = Array.init len (fun i -> lo + i) in
      Array.sort (fun a bidx -> compare cols_tmp.(a) cols_tmp.(bidx)) order;
      let k = ref 0 in
      while !k < len do
        let c = cols_tmp.(order.(!k)) in
        let acc = ref 0. in
        while !k < len && cols_tmp.(order.(!k)) = c do
          acc := !acc +. vals_tmp.(order.(!k));
          incr k
        done;
        col_out.(!out) <- c;
        val_out.(!out) <- !acc;
        incr out
      done
    end
  done;
  row_ptr.(nrows) <- !out;
  {
    nrows;
    ncols;
    row_ptr;
    col_idx = Array.sub col_out 0 !out;
    values = Array.sub val_out 0 !out;
  }

let of_csr ~nrows ~ncols ~row_ptr ~col_idx ~values =
  if nrows < 0 || ncols < 0 then invalid_arg "Sparse.of_csr: negative dimension";
  if Array.length row_ptr <> nrows + 1 then invalid_arg "Sparse.of_csr: row_ptr length";
  if Array.length col_idx <> Array.length values then
    invalid_arg "Sparse.of_csr: col_idx/values length mismatch";
  if nrows > 0 && row_ptr.(0) <> 0 then invalid_arg "Sparse.of_csr: row_ptr must start at 0";
  if (nrows = 0 || row_ptr.(nrows) = Array.length values) = false then
    invalid_arg "Sparse.of_csr: row_ptr end does not match nnz";
  for i = 0 to nrows - 1 do
    if row_ptr.(i + 1) < row_ptr.(i) then invalid_arg "Sparse.of_csr: row_ptr not monotone";
    for k = row_ptr.(i) to row_ptr.(i + 1) - 1 do
      if col_idx.(k) < 0 || col_idx.(k) >= ncols then
        invalid_arg "Sparse.of_csr: column index out of range";
      if k > row_ptr.(i) && col_idx.(k) <= col_idx.(k - 1) then
        invalid_arg "Sparse.of_csr: columns not strictly increasing within a row"
    done
  done;
  { nrows; ncols; row_ptr; col_idx; values }

let rows m = m.nrows
let cols m = m.ncols
let nnz m = Array.length m.values

(* [out.(i) <- row i of A x] for the rows [lo, hi): each row one
   accumulation in column order, stored straight into [out], so no row
   sum is boxed on its way out of a call.  The CSR arrays are arguments
   rather than fields of [m], which keeps them in registers: ~10 % off a
   res-3 matvec. *)
let mul_rows (row_ptr : int array) (col_idx : int array) (values : float array)
    (x : float array) (out : float array) lo hi =
  for i = lo to hi - 1 do
    let acc = ref 0. in
    for k = row_ptr.(i) to row_ptr.(i + 1) - 1 do
      acc := !acc +. (values.(k) *. x.(col_idx.(k)))
    done;
    out.(i) <- !acc
  done

let mat_vec m x =
  if Array.length x <> m.ncols then invalid_arg "Sparse.mat_vec: dimension mismatch";
  let out = Array.make m.nrows 0. in
  mul_rows m.row_ptr m.col_idx m.values x out 0 m.nrows;
  out

(* Row-parallel product: each row is one accumulation in the same order
   as [mat_vec], written to a disjoint slot, so the pooled result is
   bitwise identical to the sequential one. *)
let mul ?pool m x =
  match pool with
  | None -> mat_vec m x
  | Some pool ->
    if Array.length x <> m.ncols then invalid_arg "Sparse.mul: dimension mismatch";
    let out = Array.make m.nrows 0. in
    Ttsv_parallel.Pool.for_chunks ~chunk:256 ~min_size:512 pool m.nrows (fun ~lo ~hi ->
        mul_rows m.row_ptr m.col_idx m.values x out lo hi);
    out

let diagonal m =
  let d = Array.make m.nrows 0. in
  for i = 0 to m.nrows - 1 do
    for k = m.row_ptr.(i) to m.row_ptr.(i + 1) - 1 do
      if m.col_idx.(k) = i then d.(i) <- d.(i) +. m.values.(k)
    done
  done;
  d

let csr m = (m.row_ptr, m.col_idx, m.values)

let get m i j =
  if i < 0 || i >= m.nrows || j < 0 || j >= m.ncols then
    invalid_arg "Sparse.get: index out of range";
  let acc = ref 0. in
  for k = m.row_ptr.(i) to m.row_ptr.(i + 1) - 1 do
    if m.col_idx.(k) = j then acc := !acc +. m.values.(k)
  done;
  !acc

let iter_row m i f =
  if i < 0 || i >= m.nrows then invalid_arg "Sparse.iter_row: row out of range";
  for k = m.row_ptr.(i) to m.row_ptr.(i + 1) - 1 do
    f m.col_idx.(k) m.values.(k)
  done

let bandwidth m =
  let bw = ref 0 in
  for i = 0 to m.nrows - 1 do
    for k = m.row_ptr.(i) to m.row_ptr.(i + 1) - 1 do
      bw := Stdlib.max !bw (abs (m.col_idx.(k) - i))
    done
  done;
  !bw

let all_finite m = Vec.all_finite m.values

let to_dense m =
  let d = Dense.create m.nrows m.ncols in
  for i = 0 to m.nrows - 1 do
    for k = m.row_ptr.(i) to m.row_ptr.(i + 1) - 1 do
      Dense.add_to d i m.col_idx.(k) m.values.(k)
    done
  done;
  d

let of_dense d =
  let b = builder (Dense.rows d) (Dense.cols d) in
  for i = 0 to Dense.rows d - 1 do
    for j = 0 to Dense.cols d - 1 do
      let x = Dense.get d i j in
      if x <> 0. then add b i j x
    done
  done;
  finalize b

let transpose m =
  let b = builder ~hint:(nnz m) m.ncols m.nrows in
  for i = 0 to m.nrows - 1 do
    for k = m.row_ptr.(i) to m.row_ptr.(i + 1) - 1 do
      add b m.col_idx.(k) i m.values.(k)
    done
  done;
  finalize b

let is_symmetric ?(tol = 1e-10) m =
  m.nrows = m.ncols
  &&
  let mt = transpose m in
  let scale = Array.fold_left (fun acc x -> Float.max acc (Float.abs x)) 1. m.values in
  let ok = ref true in
  (* same structure after finalize: compare row by row *)
  if m.row_ptr <> mt.row_ptr || m.col_idx <> mt.col_idx then ok := false
  else
    Array.iteri
      (fun k v -> if Float.abs (v -. mt.values.(k)) > tol *. scale then ok := false)
      m.values;
  !ok
