type minimum = { xmin : Vec.t; fmin : float; iterations : int; converged : bool }

let nelder_mead ?(tol = 1e-10) ?(max_iter = 2000) f x0 =
  let n = Array.length x0 in
  if n = 0 then invalid_arg "Optimize.nelder_mead: empty starting point";
  let step_for i = 0.1 *. (1. +. Float.abs x0.(i)) in
  (* simplex of n+1 vertices with their values, kept sorted best-first *)
  let vertices =
    Array.init (n + 1) (fun k ->
        let x = Vec.copy x0 in
        if k > 0 then x.(k - 1) <- x.(k - 1) +. step_for (k - 1);
        (x, f x))
  in
  let sort () = Array.sort (fun (_, fa) (_, fb) -> compare fa fb) vertices in
  sort ();
  let centroid_excl_worst () =
    let c = Vec.zeros n in
    for k = 0 to n - 1 do
      let x, _ = vertices.(k) in
      Vec.axpy 1. x c
    done;
    Vec.scale_in_place (1. /. float_of_int n) c;
    c
  in
  let combine c x alpha = Vec.init n (fun i -> c.(i) +. (alpha *. (c.(i) -. x.(i)))) in
  let iter = ref 0 in
  (* converged when BOTH the function values and the vertex positions have
     collapsed: a function-only criterion stalls when the simplex straddles
     the minimum with equal values (e.g. symmetric 1-d quadratics) *)
  let spread () =
    let _, fbest = vertices.(0) and _, fworst = vertices.(n) in
    Float.abs (fworst -. fbest)
  in
  let diameter () =
    let xb, _ = vertices.(0) in
    let d = ref 0. in
    for k = 1 to n do
      let x, _ = vertices.(k) in
      for i = 0 to n - 1 do
        d := Float.max !d (Float.abs (x.(i) -. xb.(i)))
      done
    done;
    !d
  in
  let scale () =
    let xb, _ = vertices.(0) in
    1. +. Array.fold_left (fun acc x -> Float.max acc (Float.abs x)) 0. xb
  in
  let converged () = spread () <= tol && diameter () <= sqrt tol *. scale () in
  while (not (converged ())) && !iter < max_iter do
    incr iter;
    let c = centroid_excl_worst () in
    let xw, fw = vertices.(n) in
    let _, fbest = vertices.(0) in
    let _, fsecond = vertices.(n - 1) in
    let xr = combine c xw 1. in
    let fr = f xr in
    if fr < fbest then begin
      (* try expansion *)
      let xe = combine c xw 2. in
      let fe = f xe in
      if fe < fr then vertices.(n) <- (xe, fe) else vertices.(n) <- (xr, fr)
    end
    else if fr < fsecond then vertices.(n) <- (xr, fr)
    else begin
      (* contraction: outside if reflected better than worst, else inside *)
      let xc, fc =
        if fr < fw then
          let x = combine c xw 0.5 in
          (x, f x)
        else
          let x = combine c xw (-0.5) in
          (x, f x)
      in
      if fc < Float.min fr fw then vertices.(n) <- (xc, fc)
      else begin
        (* shrink toward best *)
        let xb, _ = vertices.(0) in
        for k = 1 to n do
          let x, _ = vertices.(k) in
          let x' = Vec.init n (fun i -> xb.(i) +. (0.5 *. (x.(i) -. xb.(i)))) in
          vertices.(k) <- (x', f x')
        done
      end
    end;
    sort ()
  done;
  let xbest, fbest = vertices.(0) in
  { xmin = xbest; fmin = fbest; iterations = !iter; converged = converged () }

let bisect ?(tol = 1e-12) ?(max_iter = 200) f a b =
  let fa = f a and fb = f b in
  if fa *. fb > 0. then invalid_arg "Optimize.bisect: interval does not bracket a root";
  let a = ref a and b = ref b and fa = ref fa in
  let iter = ref 0 in
  while !b -. !a > tol && !iter < max_iter do
    incr iter;
    let m = 0.5 *. (!a +. !b) in
    let fm = f m in
    if !fa *. fm <= 0. then b := m
    else begin
      a := m;
      fa := fm
    end
  done;
  0.5 *. (!a +. !b)
