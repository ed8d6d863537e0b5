type t = {
  t_substrate : float;
  t_ild : float;
  t_bond : float;
  t_device : float;
  substrate : Ttsv_physics.Material.t;
  ild : Ttsv_physics.Material.t;
  bond : Ttsv_physics.Material.t;
  device_power_density : float;
  ild_power_density : float;
}

let make ?(t_device = 2e-6) ?(device_power_density = 0.) ?(ild_power_density = 0.) ~t_substrate
    ~t_ild ~t_bond () =
  if not (t_substrate > 0.) then invalid_arg "Plane.make: substrate thickness must be positive";
  if not (t_ild > 0.) then invalid_arg "Plane.make: ILD thickness must be positive";
  if not (t_bond >= 0.) then invalid_arg "Plane.make: bond thickness must be nonnegative";
  if not (t_device >= 0.) then invalid_arg "Plane.make: device layer thickness must be nonnegative";
  if not (t_device <= t_substrate) then
    invalid_arg "Plane.make: device layer thicker than the substrate";
  if not (device_power_density >= 0. && ild_power_density >= 0.) then
    invalid_arg "Plane.make: power densities must be nonnegative";
  {
    t_substrate;
    t_ild;
    t_bond;
    t_device;
    substrate = Ttsv_physics.Materials.silicon;
    ild = Ttsv_physics.Materials.silicon_dioxide;
    bond = Ttsv_physics.Materials.polyimide;
    device_power_density;
    ild_power_density;
  }

let height p = p.t_bond +. p.t_substrate +. p.t_ild

let heat_input p ~device_area ~ild_area =
  (p.device_power_density *. p.t_device *. device_area)
  +. (p.ild_power_density *. p.t_ild *. ild_area)

let with_t_substrate p t_substrate =
  if not (t_substrate > 0.) then invalid_arg "Plane.with_t_substrate: thickness must be positive";
  if not (p.t_device <= t_substrate) then
    invalid_arg "Plane.with_t_substrate: device layer thicker than the substrate";
  { p with t_substrate }

let with_power ?device_power_density ?ild_power_density p =
  let device_power_density =
    match device_power_density with Some d -> d | None -> p.device_power_density
  in
  let ild_power_density =
    match ild_power_density with Some d -> d | None -> p.ild_power_density
  in
  if device_power_density < 0. || ild_power_density < 0. then
    invalid_arg "Plane.with_power: power densities must be nonnegative";
  { p with device_power_density; ild_power_density }

let pp ppf p =
  Format.fprintf ppf "plane(tSi=%a, tD=%a, tb=%a)" Ttsv_physics.Units.pp_length_um p.t_substrate
    Ttsv_physics.Units.pp_length_um p.t_ild Ttsv_physics.Units.pp_length_um p.t_bond
