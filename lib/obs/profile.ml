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

type t = {
  schema : string;
  spans : span list;
  convs : conv list;
  metrics : int;
  summaries : (string * float option) list;
}

type agg = {
  agg_name : string;
  agg_count : int;
  agg_total : float;  (** summed span durations (children included) *)
  agg_self : float;  (** summed durations minus direct children *)
}

(* ------------------------------------------------------------- loading *)

(* The one reader of the trace format: every record is checked against
   the contract in profile.mli, and the first violation aborts the load
   with its line number. *)
exception Malformed of string

let bad fmt = Printf.ksprintf (fun s -> raise (Malformed s)) fmt

let field conv what name j =
  match Option.bind (Json.member name j) conv with
  | Some v -> v
  | None -> bad "missing %s field %S" what name

let int_field = field Json.to_int_opt "integer"
let num_field = field Json.to_float_opt "numeric"
let str_field = field Json.to_string_opt "string"

(* an optional span reference: absent, or an integer *)
let opt_int name j =
  match Json.member name j with
  | None -> None
  | Some v -> (
    match Json.to_int_opt v with Some i -> Some i | None -> bad "%S must be an integer" name)

let parse_meta j =
  if str_field "type" j <> "meta" then bad "the first record must be the meta record";
  let schema = str_field "schema" j in
  if schema <> Sink.schema then bad "unsupported schema %S, expected %S" schema Sink.schema;
  ignore (str_field "clock_unit" j);
  schema

let parse_span ids j =
  let id = int_field "id" j in
  if Hashtbl.mem ids id then bad "duplicate span id %d" id;
  Hashtbl.add ids id ();
  let parent =
    match Json.member "parent" j with
    | None | Some Json.Null -> None
    | Some p -> (
      match Json.to_int_opt p with
      | Some p -> Some p
      | None -> bad "span \"parent\" must be an integer or null")
  in
  let domain = int_field "domain" j in
  let depth = int_field "depth" j in
  if depth < 0 then bad "negative span depth %d" depth;
  let name = str_field "name" j in
  let start = num_field "start" j in
  let dur = num_field "dur" j in
  if dur < 0. then bad "negative span duration %g" dur;
  (match Json.member "attrs" j with
  | None -> ()
  | Some (Json.Obj kvs) ->
    List.iter
      (function _, Json.String _ -> () | k, _ -> bad "span attr %S must be a string" k)
      kvs
  | Some _ -> bad "span \"attrs\" must be an object");
  { id; parent; domain; depth; name; start; dur }

let check_metric j =
  ignore (str_field "name" j);
  let kind = str_field "kind" j in
  if not (List.mem kind [ "counter"; "gauge"; "histogram" ]) then
    bad "unknown metric kind %S" kind;
  if Json.member "value" j = None then bad "metric without a \"value\"";
  ignore (num_field "t" j);
  ignore (opt_int "span" j)

let parse_summary j =
  let name = str_field "name" j in
  match Json.member "data" j with
  | None -> bad "summary without \"data\""
  | Some data -> (name, Option.bind (Json.member "value" data) Json.to_float_opt)

let parse_conv j =
  let meth = str_field "method" j in
  let total = int_field "total" j in
  if total < 0 then bad "negative conv total %d" total;
  let numbers what =
    match Json.member what j with
    | Some (Json.List l) ->
      Array.of_list
        (List.map
           (fun v ->
             match Json.to_float_opt v with Some f -> f | None -> bad "non-numeric %s entry" what)
           l)
    | _ -> bad "conv without %S list" what
  in
  let iterations = numbers "iterations" in
  let residuals = numbers "residuals" in
  let n = Array.length iterations in
  if n <> Array.length residuals then
    bad "conv iterations (%d) and residuals (%d) differ in length" n (Array.length residuals);
  if n > total then bad "conv retains %d entries but total is %d" n total;
  ignore (num_field "t" j);
  let span = opt_int "span" j in
  { meth; span; total; iterations = Array.map int_of_float iterations; residuals }

let of_lines lines =
  let ids = Hashtbl.create 256 in
  let schema = ref None and spans = ref [] and convs = ref [] in
  let metrics = ref 0 and summaries = ref [] in
  let record line =
    match Json.parse line with
    | Error e -> bad "not valid JSON: %s" e
    | Ok j -> (
      match !schema with
      | None -> schema := Some (parse_meta j)
      | Some _ -> (
        match str_field "type" j with
        | "span" -> spans := parse_span ids j :: !spans
        | "conv" -> convs := parse_conv j :: !convs
        | "metric" ->
          check_metric j;
          incr metrics
        | "summary" -> summaries := parse_summary j :: !summaries
        | "meta" -> bad "duplicate meta record"
        | other -> bad "unknown record type %S" other))
  in
  let lineno = ref 0 in
  match
    List.iter
      (fun line ->
        incr lineno;
        if String.trim line <> "" then record line)
      lines
  with
  | exception Malformed e -> Error (Printf.sprintf "line %d: %s" !lineno e)
  | () -> (
    (* spans are written at completion, so a child can precede its
       parent: resolve the references only once the whole file is read *)
    let spans = List.rev !spans in
    let orphan s = match s.parent with Some p -> not (Hashtbl.mem ids p) | None -> false in
    match (!schema, List.find_opt orphan spans) with
    | None, _ -> Error "empty trace: no meta record"
    | Some _, Some s ->
      Error
        (Printf.sprintf "span %d references unknown parent %d" s.id (Option.get s.parent))
    | Some schema, None ->
      Ok
        {
          schema;
          spans;
          convs = List.rev !convs;
          metrics = !metrics;
          summaries = List.rev !summaries;
        })

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
