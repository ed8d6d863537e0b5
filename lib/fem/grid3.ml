type t = { x_faces : float array; y_faces : float array; z_faces : float array }

let validate name faces =
  let n = Array.length faces in
  if n < 2 then invalid_arg ("Grid3.make: " ^ name ^ " needs at least one cell");
  if Float.abs faces.(0) > 1e-30 then invalid_arg ("Grid3.make: " ^ name ^ " must start at 0");
  for i = 0 to n - 2 do
    if faces.(i) >= faces.(i + 1) then
      invalid_arg ("Grid3.make: " ^ name ^ " must be strictly increasing")
  done

let make ~x_faces ~y_faces ~z_faces =
  validate "x_faces" x_faces;
  validate "y_faces" y_faces;
  validate "z_faces" z_faces;
  { x_faces = Array.copy x_faces; y_faces = Array.copy y_faces; z_faces = Array.copy z_faces }

let nx g = Array.length g.x_faces - 1
let ny g = Array.length g.y_faces - 1
let nz g = Array.length g.z_faces - 1
let cells g = nx g * ny g * nz g
let index g ix iy iz = ((((iz * ny g) + iy) * nx g) + ix)
let center faces i = 0.5 *. (faces.(i) +. faces.(i + 1))
let x_center g i = center g.x_faces i
let y_center g i = center g.y_faces i
let delta faces i = faces.(i + 1) -. faces.(i)
let dx g i = delta g.x_faces i
let dy g i = delta g.y_faces i
let dz g i = delta g.z_faces i
let volume g ix iy iz = dx g ix *. dy g iy *. dz g iz
let face_area_x g iy iz = dy g iy *. dz g iz
let face_area_y g ix iz = dx g ix *. dz g iz
let face_area_z g ix iy = dx g ix *. dy g iy
