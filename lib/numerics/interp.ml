type t = { xs : float array; ys : float array }

let create ~xs ~ys =
  let n = Array.length xs in
  if n <> Array.length ys then invalid_arg "Interp.create: length mismatch";
  if n < 2 then invalid_arg "Interp.create: need at least two points";
  for i = 0 to n - 2 do
    if xs.(i) >= xs.(i + 1) then invalid_arg "Interp.create: abscissae not strictly increasing"
  done;
  { xs = Array.copy xs; ys = Array.copy ys }

let of_points pts =
  let pts = List.sort (fun (a, _) (b, _) -> compare a b) pts in
  let xs = Array.of_list (List.map fst pts) in
  let ys = Array.of_list (List.map snd pts) in
  create ~xs ~ys

let eval t x =
  let n = Array.length t.xs in
  if x <= t.xs.(0) then t.ys.(0)
  else if x >= t.xs.(n - 1) then t.ys.(n - 1)
  else begin
    (* binary search for the segment [xs.(i), xs.(i+1)] containing x *)
    let lo = ref 0 and hi = ref (n - 1) in
    while !hi - !lo > 1 do
      let m = (!lo + !hi) / 2 in
      if t.xs.(m) <= x then lo := m else hi := m
    done;
    let i = !lo in
    let slope = (t.ys.(i + 1) -. t.ys.(i)) /. (t.xs.(i + 1) -. t.xs.(i)) in
    t.ys.(i) +. (slope *. (x -. t.xs.(i)))
  end
