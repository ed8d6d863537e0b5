let um x = x *. 1e-6
let mm x = x *. 1e-3
let to_um x = x *. 1e6
let um2 a = a *. 1e-12
let w_per_mm3 p = p *. 1e9
let kelvin_of_celsius t = t +. 273.15
let pp_length_um ppf x = Format.fprintf ppf "%.3g µm" (to_um x)
