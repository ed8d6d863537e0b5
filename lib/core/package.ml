type t = { ambient : float; resistance : float }

let make ?(ambient = 25.) ~resistance () =
  if not (resistance >= 0.) then invalid_arg "Package.make: resistance must be nonnegative";
  { ambient; resistance }

let sink_temperature pkg ~total_power = pkg.ambient +. (pkg.resistance *. total_power)

let junction_temperature pkg ~total_power ~model_rise =
  sink_temperature pkg ~total_power +. model_rise
