(* Bench-regression gate: compare a current BENCH_*.json against a
   committed baseline.  Metrics are discovered generically — walking the
   JSON, extending a path at each object from its identifying fields
   ("name", "resolution", "domains") and recording every "iterations"
   and "wall_s" leaf — so the gate keeps working as bench artefacts grow
   fields.  Iteration counts are chunk-deterministic, so they must match
   exactly; wall clocks gate with a ratio tolerance and improvements
   always pass. *)

type kind = Iterations | Wall

let kind_name = function Iterations -> "iterations" | Wall -> "wall_s"

type metric = { key : string; kind : kind; value : float }

type status = Ok_ | Regressed of string | Missing | New

type row = {
  key : string;
  kind : kind;
  baseline : float option;
  current : float option;
  status : status;
}

(* path segments contributed by one object's identifying fields *)
let labels_of kvs =
  List.filter_map
    (fun (field, prefix, render) ->
      Option.bind (List.assoc_opt field kvs) (fun v ->
          Option.map (fun s -> prefix ^ s) (render v)))
    [
      ("name", "", Json.to_string_opt);
      ("resolution", "res", fun v -> Option.map string_of_int (Json.to_int_opt v));
      ("domains", "d", fun v -> Option.map string_of_int (Json.to_int_opt v));
    ]

let extract json =
  let out = ref [] in
  let rec go path j =
    match j with
    | Json.Obj kvs ->
      let path = path @ labels_of kvs in
      List.iter
        (fun (k, v) ->
          match (k, v) with
          | "iterations", _ -> (
            match Json.to_float_opt v with
            | Some x -> out := { key = String.concat "/" path; kind = Iterations; value = x } :: !out
            | None -> ())
          | "wall_s", _ -> (
            match Json.to_float_opt v with
            | Some x -> out := { key = String.concat "/" path; kind = Wall; value = x } :: !out
            | None -> ())
          (* phase breakdowns are diagnostic, not gated: their sums move
             with scheduling noise and would make the gate flaky *)
          | "phases", _ -> ()
          | _, (Json.Obj _ | Json.List _) -> go path v
          | _ -> ())
        kvs
    | Json.List xs -> List.iter (go path) xs
    | _ -> ()
  in
  go [] json;
  List.rev !out

let default_wall_tol = 2.0

let compare_benches ?(wall_tol = default_wall_tol) ~baseline ~current () =
  let base = extract baseline and cur = extract current in
  let find (l : metric list) key kind =
    List.find_opt (fun (m : metric) -> m.key = key && m.kind = kind) l
  in
  let compared =
    List.map
      (fun (b : metric) ->
        match find cur b.key b.kind with
        | None ->
          { key = b.key; kind = b.kind; baseline = Some b.value; current = None; status = Missing }
        | Some c ->
          let status =
            match b.kind with
            | Iterations ->
              (* exact band, both directions: iteration counts are
                 deterministic, so any drift is a behaviour change *)
              if int_of_float c.value <> int_of_float b.value then
                Regressed
                  (Printf.sprintf "iterations %d -> %d (band \xc2\xb10)" (int_of_float b.value)
                     (int_of_float c.value))
              else Ok_
            | Wall ->
              if b.value > 0. && c.value > wall_tol *. b.value then
                Regressed
                  (Printf.sprintf "wall_s %.4g -> %.4g (%.2fx > %.2fx tolerance)" b.value
                     c.value (c.value /. b.value) wall_tol)
              else Ok_
          in
          { key = b.key; kind = b.kind; baseline = Some b.value; current = Some c.value; status })
      base
  in
  let fresh =
    List.filter_map
      (fun (c : metric) ->
        if find base c.key c.kind = None then
          Some { key = c.key; kind = c.kind; baseline = None; current = Some c.value; status = New }
        else None)
      cur
  in
  compared @ fresh

let violations rows =
  List.filter_map
    (fun r ->
      match r.status with
      | Regressed why -> Some (Printf.sprintf "%s:%s — %s" r.key (kind_name r.kind) why)
      | Missing -> Some (Printf.sprintf "%s:%s — present in baseline, missing now" r.key (kind_name r.kind))
      | Ok_ | New -> None)
    rows

let pp_table ppf rows =
  let open Format in
  let cell = function None -> "-" | Some v -> sprintf "%.6g" v in
  fprintf ppf "@[<v>%-44s %-10s %12s %12s %8s  %s@," "metric" "kind" "baseline" "current"
    "ratio" "status";
  fprintf ppf "%s@," (String.make 100 '-');
  List.iter
    (fun r ->
      let ratio =
        match (r.baseline, r.current) with
        | Some b, Some c when b > 0. -> sprintf "%.3f" (c /. b)
        | _ -> "-"
      in
      let status =
        match r.status with
        | Ok_ -> "ok"
        | Regressed _ -> "REGRESSED"
        | Missing -> "MISSING"
        | New -> "new"
      in
      fprintf ppf "%-44s %-10s %12s %12s %8s  %s@," r.key (kind_name r.kind) (cell r.baseline)
        (cell r.current) ratio status)
    rows;
  fprintf ppf "@]"
