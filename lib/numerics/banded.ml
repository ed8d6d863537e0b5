type t = { n : int; bw : int; band : float array }

let create ~n ~bw =
  if n < 0 || bw < 0 then invalid_arg "Banded.create: negative size";
  { n; bw; band = Array.make (n * ((2 * bw) + 1)) 0. }

let order m = m.n
let bandwidth m = m.bw

let in_band m i j = i >= 0 && i < m.n && j >= 0 && j < m.n && abs (i - j) <= m.bw

let index m i j = (i * ((2 * m.bw) + 1)) + j - i + m.bw

let get m i j = if in_band m i j then m.band.(index m i j) else 0.

let set m i j x =
  if not (in_band m i j) then invalid_arg "Banded.set: outside band";
  m.band.(index m i j) <- x

let add_to m i j x =
  if not (in_band m i j) then invalid_arg "Banded.add_to: outside band";
  m.band.(index m i j) <- m.band.(index m i j) +. x

let of_dense ~bw d =
  let n = Dense.rows d in
  if Dense.cols d <> n then invalid_arg "Banded.of_dense: matrix not square";
  let m = create ~n ~bw in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      let x = Dense.get d i j in
      if x <> 0. then
        if abs (i - j) <= bw then set m i j x
        else invalid_arg "Banded.of_dense: nonzero outside band"
    done
  done;
  m

let to_dense m = Dense.init m.n m.n (fun i j -> get m i j)

let mat_vec m x =
  if Array.length x <> m.n then invalid_arg "Banded.mat_vec: dimension mismatch";
  Array.init m.n (fun i ->
      let acc = ref 0. in
      let jlo = Stdlib.max 0 (i - m.bw) and jhi = Stdlib.min (m.n - 1) (i + m.bw) in
      for j = jlo to jhi do
        acc := !acc +. (get m i j *. x.(j))
      done;
      !acc)

(* Row r's slots start at r·w, its diagonal at r·w + bw, and (r, c) sits
   at (r, r) + c − r, so a row's entries right of any slot are contiguous. *)
let solve_in_place ~n ~bw a x =
  let w = (2 * bw) + 1 in
  if n < 0 || bw < 0 || Array.length a < n * w || Array.length x < n then
    invalid_arg "Banded.solve_in_place: array shorter than the order";
  (* forward elimination within the band *)
  for k = 0 to n - 1 do
    let kk = (k * w) + bw in
    let pivot = a.(kk) in
    if not (Float.is_finite pivot) || Float.abs pivot < 1e-300 then raise Dense.Singular;
    let last = Stdlib.min (n - 1) (k + bw) in
    for i = k + 1 to last do
      let ik = (i * w) + bw + k - i in
      let factor = a.(ik) /. pivot in
      if factor <> 0. then begin
        for d = 0 to last - k do
          a.(ik + d) <- a.(ik + d) -. (factor *. a.(kk + d))
        done;
        x.(i) <- x.(i) -. (factor *. x.(k))
      end
    done
  done;
  (* back substitution *)
  for i = n - 1 downto 0 do
    let ii = (i * w) + bw in
    let acc = ref x.(i) in
    for d = 1 to Stdlib.min (n - 1 - i) bw do
      acc := !acc -. (a.(ii + d) *. x.(i + d))
    done;
    x.(i) <- !acc /. a.(ii)
  done

let solve m b =
  if Array.length b <> m.n then invalid_arg "Banded.solve: dimension mismatch";
  let x = Array.copy b in
  solve_in_place ~n:m.n ~bw:m.bw (Array.copy m.band) x;
  x
