type t = { r_faces : float array; z_faces : float array }

let validate_faces name faces ~from_zero =
  let n = Array.length faces in
  if n < 2 then invalid_arg ("Grid.make: " ^ name ^ " needs at least one cell");
  if from_zero && Float.abs faces.(0) > 1e-30 then
    invalid_arg ("Grid.make: " ^ name ^ " must start at 0");
  for i = 0 to n - 2 do
    if faces.(i) >= faces.(i + 1) then
      invalid_arg ("Grid.make: " ^ name ^ " must be strictly increasing")
  done

let make ~r_faces ~z_faces =
  validate_faces "r_faces" r_faces ~from_zero:true;
  validate_faces "z_faces" z_faces ~from_zero:true;
  { r_faces = Array.copy r_faces; z_faces = Array.copy z_faces }

let nr g = Array.length g.r_faces - 1
let nz g = Array.length g.z_faces - 1
let cells g = nr g * nz g
let index g ir iz = (iz * nr g) + ir
let r_center g ir = 0.5 *. (g.r_faces.(ir) +. g.r_faces.(ir + 1))
let z_center g iz = 0.5 *. (g.z_faces.(iz) +. g.z_faces.(iz + 1))
let dz g iz = g.z_faces.(iz + 1) -. g.z_faces.(iz)

let annulus_area g ir =
  let rw = g.r_faces.(ir) and re = g.r_faces.(ir + 1) in
  Float.pi *. ((re *. re) -. (rw *. rw))

let volume g ir iz = annulus_area g ir *. dz g iz
let radial_face_area g ir iz = 2. *. Float.pi *. g.r_faces.(ir + 1) *. dz g iz
let axial_face_area g ir = annulus_area g ir
let outer_radius g = g.r_faces.(Array.length g.r_faces - 1)
let height g = g.z_faces.(Array.length g.z_faces - 1)

let refine_interval a b n =
  if n < 1 then invalid_arg "Grid.refine_interval: need n >= 1";
  if b <= a then invalid_arg "Grid.refine_interval: empty interval";
  let h = (b -. a) /. float_of_int n in
  List.init (n - 1) (fun i -> a +. (h *. float_of_int (i + 1)))

let geometric_interval a b n ratio =
  if n < 1 then invalid_arg "Grid.geometric_interval: need n >= 1";
  if b <= a then invalid_arg "Grid.geometric_interval: empty interval";
  if ratio <= 0. then invalid_arg "Grid.geometric_interval: ratio must be positive";
  if n = 1 then []
  else begin
    (* widths w, w*ratio, ... summing to (b - a) *)
    let total = ref 0. and w = ref 1. in
    for _ = 1 to n do
      total := !total +. !w;
      w := !w *. ratio
    done;
    let w0 = (b -. a) /. !total in
    let acc = ref a and cur = ref w0 in
    List.init (n - 1) (fun _ ->
        acc := !acc +. !cur;
        cur := !cur *. ratio;
        !acc)
  end
