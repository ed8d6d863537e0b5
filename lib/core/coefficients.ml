type t = { k1 : float; k2 : float }

let make ~k1 ~k2 =
  if not (k1 > 0.) || not (k2 > 0.) then
    invalid_arg "Coefficients.make: coefficients must be positive";
  { k1; k2 }

let unity = { k1 = 1.; k2 = 1. }
let paper_block = { k1 = 1.3; k2 = 0.55 }
let paper_case_study = { k1 = 1.6; k2 = 0.8 }
let pp ppf c = Format.fprintf ppf "{k1=%g; k2=%g}" c.k1 c.k2
