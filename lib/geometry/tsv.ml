type t = {
  radius : float;
  liner_thickness : float;
  extension : float;
  filler : Ttsv_physics.Material.t;
  liner : Ttsv_physics.Material.t;
}

let make ?(extension = 0.) ~radius ~liner_thickness () =
  if not (radius > 0.) then invalid_arg "Tsv.make: radius must be positive";
  if not (liner_thickness > 0.) then invalid_arg "Tsv.make: liner thickness must be positive";
  if not (extension >= 0.) then invalid_arg "Tsv.make: extension must be nonnegative";
  {
    radius;
    liner_thickness;
    extension;
    filler = Ttsv_physics.Materials.copper;
    liner = Ttsv_physics.Materials.silicon_dioxide;
  }

let outer_radius t = t.radius +. t.liner_thickness
let fill_area t = Float.pi *. t.radius *. t.radius

let occupied_area t =
  let ro = outer_radius t in
  Float.pi *. ro *. ro

let with_radius t radius =
  if not (radius > 0.) then invalid_arg "Tsv.with_radius: radius must be positive";
  { t with radius }

let with_liner_thickness t liner_thickness =
  if not (liner_thickness > 0.) then
    invalid_arg "Tsv.with_liner_thickness: liner thickness must be positive";
  { t with liner_thickness }

let divide t n =
  if n < 1 then invalid_arg "Tsv.divide: need n >= 1";
  { t with radius = t.radius /. sqrt (float_of_int n) }

let pp ppf t =
  Format.fprintf ppf "TTSV r=%a, liner %a (%s in %s), l_ext=%a" Ttsv_physics.Units.pp_length_um
    t.radius Ttsv_physics.Units.pp_length_um t.liner_thickness t.filler.Ttsv_physics.Material.name
    t.liner.Ttsv_physics.Material.name Ttsv_physics.Units.pp_length_um t.extension
