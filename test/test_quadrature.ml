(* Cross-validation of the paper's eq. 9 closed form against its defining
   integral. *)

module Resistances = Ttsv_core.Resistances
module Params = Ttsv_core.Params
open Helpers

let unit_tests =
  [
    test "eq. 9: closed-form liner resistance equals its integral" (fun () ->
        (* R3 = int_0^tL dx / (2 pi kL (tD + lext) (r + x)) *)
        let stack = Params.block () in
        let rs = Resistances.of_stack stack in
        let r = 5e-6 and t_l = 1e-6 and k_l = 1.4 in
        let span = 5e-6 (* tD + lext *) in
        let integrand x = 1. /. (2. *. Float.pi *. k_l *. span *. (r +. x)) in
        let numeric = adaptive_simpson integrand 0. t_l in
        close_rel ~tol:1e-9 "eq. 9" numeric rs.Resistances.triples.(0).Resistances.liner);
  ]

let suite = ("quadrature", unit_tests)
