(* Tests for CSV figure export. *)

module Report = Ttsv_experiments.Report
module Export = Ttsv_experiments.Export
open Helpers

let sample_figure () =
  Report.figure ~title:"t" ~x_label:"radius" ~x_unit:"um" ~xs:[| 1.; 2. |]
    [
      { Report.label = "Model A"; ys = [| 10.5; 9.25 |] };
      { Report.label = "FV"; ys = [| 10.; 9. |] };
    ]

let read_file path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let csv_tests =
  [
    test "figure CSV layout" (fun () ->
        let csv = Export.figure_to_string (sample_figure ()) in
        let lines = String.split_on_char '\n' (String.trim csv) in
        Alcotest.(check int) "rows" 3 (List.length lines);
        Alcotest.(check string) "header" "radius [um],Model A,FV" (List.nth lines 0);
        Alcotest.(check string) "row1" "1,10.5,10" (List.nth lines 1);
        Alcotest.(check string) "row2" "2,9.25,9" (List.nth lines 2));
    test "cells with commas are quoted" (fun () ->
        let fig =
          Report.figure ~title:"t" ~x_label:"x" ~x_unit:"u" ~xs:[| 1. |]
            [ { Report.label = "a,b"; ys = [| 1. |] } ]
        in
        let header = List.hd (String.split_on_char '\n' (Export.figure_to_string fig)) in
        Alcotest.(check string) "quoted" "x [u],\"a,b\"" header);
    test "write_figure roundtrips through the filesystem" (fun () ->
        let path = Filename.temp_file "ttsv_test" ".csv" in
        Fun.protect
          ~finally:(fun () -> Sys.remove path)
          (fun () ->
            Export.write_figure (sample_figure ()) path;
            Alcotest.(check string) "same content"
              (Export.figure_to_string (sample_figure ()))
              (read_file path)));
    test "table CSV has title row and data rows" (fun () ->
        let t =
          {
            Report.title = "Table I";
            columns = [ "Max"; "Avg" ];
            rows = [ ("B (1)", [ "23%"; "19%" ]); ("A", [ "4%"; "2%" ]) ];
          }
        in
        let path = Filename.temp_file "ttsv_test" ".csv" in
        Fun.protect
          ~finally:(fun () -> Sys.remove path)
          (fun () ->
            Export.write_table t path;
            let lines = String.split_on_char '\n' (String.trim (read_file path)) in
            Alcotest.(check int) "rows" 3 (List.length lines);
            Alcotest.(check string) "header" "Table I,Max,Avg" (List.nth lines 0);
            Alcotest.(check string) "data" "B (1),23%,19%" (List.nth lines 1)));
  ]

let suite = ("export", csv_tests)
