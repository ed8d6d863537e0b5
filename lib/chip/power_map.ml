type t = { nx : int; ny : int; watts : float array (* row-major, y * nx + x *) }

let check_grid nx ny =
  if nx < 1 || ny < 1 then invalid_arg "Power_map: grid dimensions must be positive"

let idx m x y =
  if x < 0 || x >= m.nx || y < 0 || y >= m.ny then
    invalid_arg (Printf.sprintf "Power_map: tile (%d,%d) outside %dx%d" x y m.nx m.ny);
  (y * m.nx) + x

let zero ~nx ~ny =
  check_grid nx ny;
  { nx; ny; watts = Array.make (nx * ny) 0. }

let uniform ~nx ~ny ~total =
  check_grid nx ny;
  if not (total >= 0.) then invalid_arg "Power_map.uniform: negative total";
  { nx; ny; watts = Array.make (nx * ny) (total /. float_of_int (nx * ny)) }

let add_hotspot m ~x0 ~y0 ~x1 ~y1 ~watts =
  if not (watts >= 0.) then invalid_arg "Power_map.add_hotspot: negative watts";
  let clamp v lo hi = Stdlib.max lo (Stdlib.min hi v) in
  let x0 = clamp x0 0 (m.nx - 1) and x1 = clamp x1 0 (m.nx - 1) in
  let y0 = clamp y0 0 (m.ny - 1) and y1 = clamp y1 0 (m.ny - 1) in
  if x1 < x0 || y1 < y0 then invalid_arg "Power_map.add_hotspot: empty rectangle";
  let tiles = float_of_int ((x1 - x0 + 1) * (y1 - y0 + 1)) in
  let w = Array.copy m.watts in
  for y = y0 to y1 do
    for x = x0 to x1 do
      w.((y * m.nx) + x) <- w.((y * m.nx) + x) +. (watts /. tiles)
    done
  done;
  { m with watts = w }

let nx m = m.nx
let ny m = m.ny
let get m x y = m.watts.(idx m x y)
let total m = Array.fold_left ( +. ) 0. m.watts
