type t = { mutable state : int64; mutable spare : float option }

let create seed = { state = Int64.of_int seed; spare = None }

(* splitmix64 *)
let next_int64 g =
  g.state <- Int64.add g.state 0x9E3779B97F4A7C15L;
  let z = g.state in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let uniform g =
  (* top 53 bits to a double in [0, 1) *)
  let bits = Int64.shift_right_logical (next_int64 g) 11 in
  Int64.to_float bits /. 9007199254740992.

let normal g ~mean ~sigma =
  if sigma < 0. then invalid_arg "Rng.normal: negative sigma";
  match g.spare with
  | Some z ->
    g.spare <- None;
    mean +. (sigma *. z)
  | None ->
    (* Box-Muller on two uniforms, avoiding log 0 *)
    let u1 = Float.max (uniform g) 1e-300 in
    let u2 = uniform g in
    let r = sqrt (-2. *. log u1) in
    let theta = 2. *. Float.pi *. u2 in
    g.spare <- Some (r *. sin theta);
    mean +. (sigma *. r *. cos theta)

let lognormal_factor g ~sigma = exp (normal g ~mean:0. ~sigma)
