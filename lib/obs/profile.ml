(* Offline analysis of a JSONL trace: span tree reconstruction, self/total
   time aggregation, critical path, collapsed stacks for flamegraph.pl,
   and convergence curves.  Pure — reads lines, returns data; rendering
   lives in bin/obs_report. *)

type span = {
  id : int;
  parent : int option;
  domain : int;
  depth : int;
  name : string;
  start : float;
  dur : float;
}

type conv = {
  meth : string;
  span : int option;
  total : int;
  iterations : int array;
  residuals : float array;
}

type t = { schema : string; spans : span list; convs : conv list }

type agg = {
  agg_name : string;
  agg_count : int;
  agg_total : float;  (** summed span durations (children included) *)
  agg_self : float;  (** summed durations minus direct children *)
}

(* ------------------------------------------------------------- loading *)

let ( let* ) = Result.bind

let field_int name j =
  match Option.bind (Json.member name j) Json.to_int_opt with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "missing int field %S" name)

let field_float name j =
  match Option.bind (Json.member name j) Json.to_float_opt with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "missing number field %S" name)

let field_str name j =
  match Option.bind (Json.member name j) Json.to_string_opt with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "missing string field %S" name)

let opt_int name j = Option.bind (Json.member name j) Json.to_int_opt

let parse_span j =
  let* id = field_int "id" j in
  let* domain = field_int "domain" j in
  let* depth = field_int "depth" j in
  let* name = field_str "name" j in
  let* start = field_float "start" j in
  let* dur = field_float "dur" j in
  Ok { id; parent = opt_int "parent" j; domain; depth; name; start; dur }

let num_array name j =
  match Json.member name j with
  | Some (Json.List xs) -> (
    let floats = List.filter_map Json.to_float_opt xs in
    if List.length floats = List.length xs then Ok (Array.of_list floats)
    else Error (Printf.sprintf "non-numeric entry in %S" name))
  | _ -> Error (Printf.sprintf "missing list field %S" name)

let parse_conv j =
  let* meth = field_str "method" j in
  let* total = field_int "total" j in
  let* iters = num_array "iterations" j in
  let* residuals = num_array "residuals" j in
  if Array.length iters <> Array.length residuals then
    Error "conv: iterations and residuals differ in length"
  else
    Ok
      {
        meth;
        span = opt_int "span" j;
        total;
        iterations = Array.map int_of_float iters;
        residuals;
      }

let of_lines lines =
  let rec go lineno schema spans convs = function
    | [] -> (
      match schema with
      | None -> Error "no meta line found"
      | Some schema -> Ok { schema; spans = List.rev spans; convs = List.rev convs })
    | line :: rest -> (
      let lineno = lineno + 1 in
      if String.trim line = "" then go lineno schema spans convs rest
      else begin
        match Json.parse line with
        | Error e -> Error (Printf.sprintf "line %d: %s" lineno e)
        | Ok j -> (
          let typ = Option.bind (Json.member "type" j) Json.to_string_opt in
          match typ with
          | Some "meta" -> (
            match Option.bind (Json.member "schema" j) Json.to_string_opt with
            | Some s when s = Sink.schema ->
              go lineno (Some s) spans convs rest
            | Some s -> Error (Printf.sprintf "line %d: unsupported schema %S" lineno s)
            | None -> Error (Printf.sprintf "line %d: meta without schema" lineno))
          | Some "span" -> (
            match parse_span j with
            | Ok s -> go lineno schema (s :: spans) convs rest
            | Error e -> Error (Printf.sprintf "line %d: %s" lineno e))
          | Some "conv" -> (
            match parse_conv j with
            | Ok c -> go lineno schema spans (c :: convs) rest
            | Error e -> Error (Printf.sprintf "line %d: %s" lineno e))
          | Some _ -> go lineno schema spans convs rest (* metric/summary *)
          | None -> Error (Printf.sprintf "line %d: record without type" lineno))
      end)
  in
  go 0 None [] [] lines

let load path =
  match In_channel.with_open_text path In_channel.input_lines with
  | lines -> of_lines lines
  | exception Sys_error e -> Error e

(* ------------------------------------------------------------ analysis *)

let by_id t =
  let tbl = Hashtbl.create 256 in
  List.iter (fun s -> Hashtbl.replace tbl s.id s) t.spans;
  tbl

let children t =
  let tbl = Hashtbl.create 256 in
  List.iter
    (fun s ->
      match s.parent with
      | Some p -> Hashtbl.replace tbl p (s :: (Option.value ~default:[] (Hashtbl.find_opt tbl p)))
      | None -> ())
    t.spans;
  tbl

(* self time = own duration minus the sum of direct children, clamped at
   zero (clock jitter can make children sum to slightly more than the
   parent) *)
let self_time children_tbl s =
  let kids = Option.value ~default:[] (Hashtbl.find_opt children_tbl s.id) in
  Float.max 0. (s.dur -. List.fold_left (fun acc k -> acc +. k.dur) 0. kids)

let roots t = List.filter (fun s -> s.parent = None) t.spans

let totals t =
  let kids = children t in
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun s ->
      let c, tot, self =
        Option.value ~default:(0, 0., 0.) (Hashtbl.find_opt tbl s.name)
      in
      Hashtbl.replace tbl s.name (c + 1, tot +. s.dur, self +. self_time kids s))
    t.spans;
  let rows =
    Hashtbl.fold
      (fun name (c, tot, self) acc ->
        { agg_name = name; agg_count = c; agg_total = tot; agg_self = self } :: acc)
      tbl []
  in
  List.sort
    (fun a b ->
      match compare b.agg_self a.agg_self with 0 -> compare a.agg_name b.agg_name | c -> c)
    rows

let critical_path t =
  let kids = children t in
  let longest spans =
    List.fold_left
      (fun acc s -> match acc with Some m when m.dur >= s.dur -> acc | _ -> Some s)
      None spans
  in
  let rec descend acc s =
    let acc = (s, self_time kids s) :: acc in
    match longest (Option.value ~default:[] (Hashtbl.find_opt kids s.id)) with
    | Some k -> descend acc k
    | None -> List.rev acc
  in
  match longest (roots t) with None -> [] | Some r -> descend [] r

(* path from root to [s], as span names joined with ';' (the collapsed
   stack key).  Orphaned parents (span id never closed in the trace) end
   the chain silently. *)
let stack_of ids s =
  let rec up acc s =
    match s.parent with
    | None -> s.name :: acc
    | Some p -> (
      match Hashtbl.find_opt ids p with
      | Some ps -> up (s.name :: acc) ps
      | None -> s.name :: acc)
  in
  String.concat ";" (up [] s)

let collapsed t =
  let ids = by_id t in
  let kids = children t in
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun s ->
      let path = stack_of ids s in
      let self = self_time kids s in
      Hashtbl.replace tbl path (self +. Option.value ~default:0. (Hashtbl.find_opt tbl path)))
    t.spans;
  List.sort compare (Hashtbl.fold (fun path self acc -> (path, self) :: acc) tbl [])

let span_label t id =
  let ids = by_id t in
  Option.map (stack_of ids) (Hashtbl.find_opt ids id)
