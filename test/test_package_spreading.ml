(* Tests for the package/ambient boundary. *)

module Package = Ttsv_core.Package
open Helpers

let package_tests =
  [
    test "sink and junction temperatures" (fun () ->
        let pkg = Package.make ~ambient:25. ~resistance:0.5 () in
        close_rel "sink" 35. (Package.sink_temperature pkg ~total_power:20.);
        close_rel "junction" 47.8
          (Package.junction_temperature pkg ~total_power:20. ~model_rise:12.8));
    test "validation" (fun () ->
        check_raises_invalid "resistance" (fun () ->
            ignore (Package.make ~resistance:(-1.) ())));
  ]

let suite = ("package+spreading", package_tests)
