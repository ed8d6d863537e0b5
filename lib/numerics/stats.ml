let fold2 name f init xs ref_ =
  if Array.length xs <> Array.length ref_ then invalid_arg ("Stats." ^ name ^ ": length mismatch");
  if Array.length xs = 0 then invalid_arg ("Stats." ^ name ^ ": empty input");
  let acc = ref init in
  for i = 0 to Array.length xs - 1 do
    acc := f !acc xs.(i) ref_.(i)
  done;
  !acc

let rel_err name x r =
  if Float.abs r < 1e-300 then invalid_arg ("Stats." ^ name ^ ": reference entry is zero");
  Float.abs (x -. r) /. Float.abs r

let max_rel_error xs ref_ =
  fold2 "max_rel_error" (fun acc x r -> Float.max acc (rel_err "max_rel_error" x r)) 0. xs ref_

let mean_rel_error xs ref_ =
  fold2 "mean_rel_error" (fun acc x r -> acc +. rel_err "mean_rel_error" x r) 0. xs ref_
  /. float_of_int (Array.length xs)

let variance v =
  if Array.length v = 0 then invalid_arg "Stats.variance: empty input";
  let m = Vec.mean v in
  let ss = Array.fold_left (fun acc x -> acc +. ((x -. m) ** 2.)) 0. v in
  ss /. float_of_int (Array.length v)

let stddev v = sqrt (variance v)

let sorted v =
  let s = Array.copy v in
  Array.sort compare s;
  s

let median v =
  if Array.length v = 0 then invalid_arg "Stats.median: empty input";
  let s = sorted v in
  let n = Array.length s in
  if n mod 2 = 1 then s.(n / 2) else 0.5 *. (s.((n / 2) - 1) +. s.(n / 2))

let percentile p v =
  if Array.length v = 0 then invalid_arg "Stats.percentile: empty input";
  if p < 0. || p > 100. then invalid_arg "Stats.percentile: p out of [0, 100]";
  let s = sorted v in
  let n = Array.length s in
  if n = 1 then s.(0)
  else begin
    let rank = p /. 100. *. float_of_int (n - 1) in
    let lo = int_of_float (Float.floor rank) in
    let hi = Stdlib.min (lo + 1) (n - 1) in
    let frac = rank -. float_of_int lo in
    s.(lo) +. (frac *. (s.(hi) -. s.(lo)))
  end
