type t = {
  name : string;
  conductivity : float;
  conductivity_of_t : (float -> float) option;
  volumetric_heat_capacity : float;
}

let make ?conductivity_of_t ?(volumetric_heat_capacity = 1.6e6) ~name ~conductivity () =
  if conductivity <= 0. then invalid_arg "Material.make: conductivity must be positive";
  if volumetric_heat_capacity <= 0. then
    invalid_arg "Material.make: volumetric heat capacity must be positive";
  { name; conductivity; conductivity_of_t; volumetric_heat_capacity }

let k_at m temp_k =
  match m.conductivity_of_t with None -> m.conductivity | Some f -> f temp_k

let with_conductivity m k =
  if k <= 0. then invalid_arg "Material.with_conductivity: conductivity must be positive";
  { m with conductivity = k; conductivity_of_t = None }

let equal a b =
  String.equal a.name b.name
  && a.conductivity = b.conductivity
  && a.volumetric_heat_capacity = b.volumetric_heat_capacity
