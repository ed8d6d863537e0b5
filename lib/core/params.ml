module Units = Ttsv_physics.Units
module Plane = Ttsv_geometry.Plane
module Tsv = Ttsv_geometry.Tsv
module Stack = Ttsv_geometry.Stack

let device_layer_thickness = Units.um 1.
let device_power_density = Units.w_per_mm3 700.
let ild_power_density = Units.w_per_mm3 70.

let footprint_block = Units.um 100. *. Units.um 100.

let block ?(r = Units.um 5.) ?(t_liner = Units.um 1.) ?(t_ild = Units.um 4.)
    ?(t_bond = Units.um 1.) ?(t_si23 = Units.um 45.) ?(t_si1 = Units.um 500.)
    ?(l_ext = Units.um 1.) () =
  let tsv = Tsv.make ~radius:r ~liner_thickness:t_liner ~extension:l_ext () in
  let plane ~t_substrate ~t_bond =
    Plane.make ~t_substrate ~t_ild ~t_bond ~t_device:device_layer_thickness
      ~device_power_density ~ild_power_density ()
  in
  Stack.make ~footprint:footprint_block
    ~planes:
      [
        plane ~t_substrate:t_si1 ~t_bond:0.;
        plane ~t_substrate:t_si23 ~t_bond;
        plane ~t_substrate:t_si23 ~t_bond;
      ]
    ~tsv ()

let block_checked ?(r = Units.um 5.) ?(t_liner = Units.um 1.) ?(t_ild = Units.um 4.)
    ?(t_bond = Units.um 1.) ?(t_si23 = Units.um 45.) ?(t_si1 = Units.um 500.)
    ?(l_ext = Units.um 1.) () =
  match
    Ttsv_robust.Validate.block ~r ~t_liner ~t_ild ~t_bond ~t_si23 ~t_si1 ~l_ext
      ~t_device:device_layer_thickness ~footprint:footprint_block
  with
  | [] -> Ok (block ~r ~t_liner ~t_ild ~t_bond ~t_si23 ~t_si1 ~l_ext ())
  | violations -> Error violations

let fig4_stack r =
  let t_si23 = if r <= Units.um 5. then Units.um 5. else Units.um 45. in
  block ~r ~t_liner:(Units.um 0.5) ~t_ild:(Units.um 4.) ~t_bond:(Units.um 1.) ~t_si23 ()

let fig5_stack t_liner =
  block ~r:(Units.um 5.) ~t_liner ~t_ild:(Units.um 7.) ~t_bond:(Units.um 1.)
    ~t_si23:(Units.um 45.) ()

let fig6_stack t_si =
  block ~r:(Units.um 8.) ~t_liner:(Units.um 1.) ~t_ild:(Units.um 7.) ~t_bond:(Units.um 1.)
    ~t_si23:t_si ()

let fig7_stack () =
  block ~r:(Units.um 10.) ~t_liner:(Units.um 1.) ~t_ild:(Units.um 4.) ~t_bond:(Units.um 1.)
    ~t_si23:(Units.um 20.) ()

let block_coeffs = Coefficients.paper_block

let case_study_powers = [| 70.; 7.; 7. |]

let case_study () =
  let footprint_total = Units.mm 10. *. Units.mm 10. in
  let tsv = Tsv.make ~radius:(Units.um 30.) ~liner_thickness:(Units.um 1.)
      ~extension:(Units.um 1.) ()
  in
  let count, cell_area = Stack.cells_for_density ~footprint_total ~density:0.005 ~tsv in
  (* each unit cell carries its share of the plane powers, expressed as a
     device-layer volumetric density over the cell *)
  let plane ~watts ~t_bond =
    let density = watts /. (footprint_total *. device_layer_thickness) in
    Plane.make ~t_substrate:(Units.um 300.) ~t_ild:(Units.um 20.) ~t_bond
      ~t_device:device_layer_thickness ~device_power_density:density ~ild_power_density:0. ()
  in
  let stack =
    Stack.make ~footprint:cell_area
      ~planes:
        [
          plane ~watts:case_study_powers.(0) ~t_bond:0.;
          plane ~watts:case_study_powers.(1) ~t_bond:(Units.um 10.);
          plane ~watts:case_study_powers.(2) ~t_bond:(Units.um 10.);
        ]
      ~tsv ()
  in
  (stack, count)
