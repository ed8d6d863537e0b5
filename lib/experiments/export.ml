let escape_cell s =
  if String.exists (fun c -> c = ',' || c = '"' || c = '\n') s then
    "\"" ^ String.concat "\"\"" (String.split_on_char '"' s) ^ "\""
  else s

let figure_to_buffer (fig : Report.figure) buf =
  let add = Buffer.add_string buf in
  add (escape_cell (Printf.sprintf "%s [%s]" fig.Report.x_label fig.Report.x_unit));
  List.iter
    (fun s ->
      add ",";
      add (escape_cell s.Report.label))
    fig.Report.series;
  add "\n";
  Array.iteri
    (fun i x ->
      add (Printf.sprintf "%.9g" x);
      List.iter (fun s -> add (Printf.sprintf ",%.9g" s.Report.ys.(i))) fig.Report.series;
      add "\n")
    fig.Report.xs

let figure_to_string fig =
  let buf = Buffer.create 1024 in
  figure_to_buffer fig buf;
  Buffer.contents buf

let write_file contents path =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc contents)

let write_figure fig path = write_file (figure_to_string fig) path

let table_to_string (t : Report.table) =
  let buf = Buffer.create 1024 in
  let add = Buffer.add_string buf in
  add (escape_cell t.Report.title);
  List.iter
    (fun c ->
      add ",";
      add (escape_cell c))
    t.Report.columns;
  add "\n";
  List.iter
    (fun (label, cells) ->
      add (escape_cell label);
      List.iter
        (fun c ->
          add ",";
          add (escape_cell c))
        cells;
      add "\n")
    t.Report.rows;
  Buffer.contents buf

let write_table t path = write_file (table_to_string t) path
