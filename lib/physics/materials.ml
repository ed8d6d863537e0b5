let silicon =
  Material.make ~name:"silicon" ~conductivity:150. ~volumetric_heat_capacity:1.63e6 ()

let silicon_k_of_t =
  let k_of_t temp_k = 154. *. ((temp_k /. 300.) ** (-4. /. 3.)) in
  (* the frozen (linear-model) value is the law at 300 K so that linear and
     nonlinear analyses share their baseline *)
  Material.make ~name:"silicon-k(T)" ~conductivity:(k_of_t 300.) ~conductivity_of_t:k_of_t
    ~volumetric_heat_capacity:1.63e6 ()

let silicon_dioxide =
  Material.make ~name:"silicon-dioxide" ~conductivity:1.4 ~volumetric_heat_capacity:1.64e6 ()

let polyimide =
  Material.make ~name:"polyimide" ~conductivity:0.15 ~volumetric_heat_capacity:1.55e6 ()

let copper = Material.make ~name:"copper" ~conductivity:400. ~volumetric_heat_capacity:3.45e6 ()
let tungsten = Material.make ~name:"tungsten" ~conductivity:173. ~volumetric_heat_capacity:2.58e6 ()
let air = Material.make ~name:"air" ~conductivity:0.026 ~volumetric_heat_capacity:1.2e3 ()
let aluminum = Material.make ~name:"aluminum" ~conductivity:237. ~volumetric_heat_capacity:2.42e6 ()

let benzocyclobutene =
  Material.make ~name:"benzocyclobutene" ~conductivity:0.29 ~volumetric_heat_capacity:1.3e6 ()

let all =
  [
    silicon;
    silicon_k_of_t;
    silicon_dioxide;
    polyimide;
    copper;
    tungsten;
    air;
    aluminum;
    benzocyclobutene;
  ]

