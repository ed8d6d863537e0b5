let parallel rs =
  if rs = [] then invalid_arg "Reduce.parallel: empty list";
  let g =
    List.fold_left
      (fun acc r ->
        if r <= 0. then invalid_arg "Reduce.parallel: resistance must be positive";
        acc +. (1. /. r))
      0. rs
  in
  1. /. g

let cylinder_axial ~length ~conductivity ~radius =
  if conductivity <= 0. || radius <= 0. then
    invalid_arg "Reduce.cylinder_axial: conductivity and radius must be positive";
  if length < 0. then invalid_arg "Reduce.cylinder_axial: negative length";
  length /. (conductivity *. Float.pi *. radius *. radius)
