type t = { nrows : int; ncols : int; data : float array }

exception Singular

let create nrows ncols = { nrows; ncols; data = Array.make (nrows * ncols) 0. }

let idx m i j = (i * m.ncols) + j

let get m i j = m.data.(idx m i j)
let set m i j x = m.data.(idx m i j) <- x
let add_to m i j x = m.data.(idx m i j) <- m.data.(idx m i j) +. x

let identity n =
  let m = create n n in
  for i = 0 to n - 1 do
    set m i i 1.
  done;
  m

let of_arrays a =
  let nrows = Array.length a in
  if nrows = 0 then { nrows = 0; ncols = 0; data = [||] }
  else begin
    let ncols = Array.length a.(0) in
    Array.iter
      (fun row ->
        if Array.length row <> ncols then invalid_arg "Dense.of_arrays: ragged rows")
      a;
    let m = create nrows ncols in
    for i = 0 to nrows - 1 do
      for j = 0 to ncols - 1 do
        set m i j a.(i).(j)
      done
    done;
    m
  end

let init nrows ncols f =
  let m = create nrows ncols in
  for i = 0 to nrows - 1 do
    for j = 0 to ncols - 1 do
      set m i j (f i j)
    done
  done;
  m

let rows m = m.nrows
let cols m = m.ncols

let copy m = { m with data = Array.copy m.data }

let mat_vec m x =
  if Array.length x <> m.ncols then invalid_arg "Dense.mat_vec: dimension mismatch";
  Array.init m.nrows (fun i ->
      let acc = ref 0. in
      for j = 0 to m.ncols - 1 do
        acc := !acc +. (get m i j *. x.(j))
      done;
      !acc)

type lu = { lu : t; perm : int array }

(* Crout-style LU with partial pivoting; the factored matrix stores L (unit
   diagonal, below) and U (on and above the diagonal) in place. *)
let lu_factor m0 =
  if m0.nrows <> m0.ncols then invalid_arg "Dense.lu_factor: matrix not square";
  let n = m0.nrows in
  let a = copy m0 in
  let perm = Array.init n (fun i -> i) in
  for k = 0 to n - 1 do
    (* find pivot *)
    let p = ref k in
    for i = k + 1 to n - 1 do
      if Float.abs (get a i k) > Float.abs (get a !p k) then p := i
    done;
    if !p <> k then begin
      for j = 0 to n - 1 do
        let tmp = get a k j in
        set a k j (get a !p j);
        set a !p j tmp
      done;
      let tmp = perm.(k) in
      perm.(k) <- perm.(!p);
      perm.(!p) <- tmp
    end;
    let pivot = get a k k in
    if Float.abs pivot < 1e-300 then raise Singular;
    for i = k + 1 to n - 1 do
      let factor = get a i k /. pivot in
      set a i k factor;
      if factor <> 0. then
        for j = k + 1 to n - 1 do
          add_to a i j (-.factor *. get a k j)
        done
    done
  done;
  { lu = a; perm }

let lu_solve { lu = a; perm } b =
  let n = a.nrows in
  if Array.length b <> n then invalid_arg "Dense.lu_solve: dimension mismatch";
  let x = Array.init n (fun i -> b.(perm.(i))) in
  (* forward substitution, L has unit diagonal *)
  for i = 1 to n - 1 do
    let acc = ref x.(i) in
    for j = 0 to i - 1 do
      acc := !acc -. (get a i j *. x.(j))
    done;
    x.(i) <- !acc
  done;
  (* back substitution *)
  for i = n - 1 downto 0 do
    let acc = ref x.(i) in
    for j = i + 1 to n - 1 do
      acc := !acc -. (get a i j *. x.(j))
    done;
    x.(i) <- !acc /. get a i i
  done;
  x

let solve a b = lu_solve (lu_factor a) b

let approx_equal ?(rtol = 1e-9) ?(atol = 1e-12) a b =
  a.nrows = b.nrows && a.ncols = b.ncols
  &&
  let ok = ref true in
  Array.iteri
    (fun i x ->
      if Float.abs (x -. b.data.(i)) > atol +. (rtol *. Float.abs b.data.(i)) then ok := false)
    a.data;
  !ok

let is_symmetric ?(tol = 1e-10) m =
  m.nrows = m.ncols
  &&
  let scale = Array.fold_left (fun acc x -> Float.max acc (Float.abs x)) 0. m.data in
  let bound = tol *. Float.max scale 1. in
  let ok = ref true in
  for i = 0 to m.nrows - 1 do
    for j = i + 1 to m.ncols - 1 do
      if Float.abs (get m i j -. get m j i) > bound then ok := false
    done
  done;
  !ok
