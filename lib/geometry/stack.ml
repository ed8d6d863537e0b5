type t = {
  footprint : float;
  planes : Plane.t array;
  tsv : Tsv.t;
  sink_temperature : float;
}

let validate s =
  if not (s.footprint > 0.) then invalid_arg "Stack.make: footprint must be positive";
  let n = Array.length s.planes in
  if n = 0 then invalid_arg "Stack.make: at least one plane required";
  if s.planes.(0).Plane.t_bond <> 0. then
    invalid_arg "Stack.make: the first plane must have no bonding layer below it";
  for i = 1 to n - 1 do
    if not (s.planes.(i).Plane.t_bond > 0.) then
      invalid_arg "Stack.make: planes above the first need a positive bond thickness"
  done;
  if not (s.tsv.Tsv.extension < s.planes.(0).Plane.t_substrate) then
    invalid_arg "Stack.make: TSV extension exceeds the first substrate thickness";
  if not (Tsv.occupied_area s.tsv < s.footprint) then
    invalid_arg "Stack.make: TTSV (incl. liner) does not fit in the footprint";
  s

let make ?(sink_temperature = 27.) ~footprint ~planes ~tsv () =
  validate { footprint; planes = Array.of_list planes; tsv; sink_temperature }

let num_planes s = Array.length s.planes
let plane s i = s.planes.(i)
let silicon_area s = s.footprint -. Tsv.occupied_area s.tsv

let total_height s = Array.fold_left (fun acc p -> acc +. Plane.height p) 0. s.planes

(* The TTSV displaces active devices in every substrate it crosses (all of
   them) and interconnects in every ILD it crosses (all but the top one). *)
let heat_inputs s =
  let n = Array.length s.planes in
  let free = silicon_area s in
  Array.mapi
    (fun i p ->
      let ild_area = if i = n - 1 then s.footprint else free in
      Plane.heat_input p ~device_area:free ~ild_area)
    s.planes

let total_heat s = Ttsv_numerics.Vec.sum (heat_inputs s)

let with_tsv s tsv = validate { s with tsv }

let map_planes s f = validate { s with planes = Array.mapi f s.planes }

let cells_for_density ~footprint_total ~density ~tsv =
  if footprint_total <= 0. then invalid_arg "Stack.cells_for_density: footprint must be positive";
  if density <= 0. || density >= 1. then
    invalid_arg "Stack.cells_for_density: density must be in (0, 1)";
  let per_tsv = Tsv.fill_area tsv in
  let count = int_of_float (Float.round (footprint_total *. density /. per_tsv)) in
  let count = Stdlib.max count 1 in
  (count, footprint_total /. float_of_int count)

let pp ppf s =
  Format.fprintf ppf "@[<v>stack: %d planes, A0=%.4g mm^2, sink %.1f degC@,%a@,@[<v>%a@]@]"
    (num_planes s)
    (s.footprint *. 1e6)
    s.sink_temperature Tsv.pp s.tsv
    (Format.pp_print_list Plane.pp)
    (Array.to_list s.planes)
