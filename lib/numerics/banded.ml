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
