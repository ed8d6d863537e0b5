let schema = "ttsv.trace.v2"

(* Counts every JSONL line ever written, always (not guarded): the
   disabled-path regression test asserts this stays flat while
   observability is off. *)
let writes = Atomic.make 0
let write_count () = Atomic.get writes

type sink = { oc : out_channel; mutex : Mutex.t; path : string }

let current : sink option Atomic.t = Atomic.make None
let trace_path () = Option.map (fun s -> s.path) (Atomic.get current)

let emit_json j =
  match Atomic.get current with
  | None -> ()
  | Some s ->
    let line = Json.to_string j in
    Mutex.lock s.mutex;
    Fun.protect
      ~finally:(fun () -> Mutex.unlock s.mutex)
      (fun () ->
        output_string s.oc line;
        output_char s.oc '\n');
    ignore (Atomic.fetch_and_add writes 1)

let meta () =
  Json.Obj
    [
      ("type", Json.String "meta");
      ("schema", Json.String schema);
      ("clock_unit", Json.String "s");
      ("pid", Json.Int (Unix.getpid ()));
      ("start_epoch", Json.Float Clock.start_epoch);
    ]

let open_trace path =
  (match Atomic.get current with
  | Some s ->
    Atomic.set current None;
    close_out_noerr s.oc
  | None -> ());
  let oc = open_out path in
  Atomic.set current (Some { oc; mutex = Mutex.create (); path });
  emit_json (meta ())

let close_trace () =
  match Atomic.get current with
  | None -> ()
  | Some s ->
    Atomic.set current None;
    (try flush s.oc with Sys_error _ -> ());
    close_out_noerr s.oc

let flush_trace () =
  match Atomic.get current with
  | None -> ()
  | Some s ->
    Mutex.lock s.mutex;
    Fun.protect ~finally:(fun () -> Mutex.unlock s.mutex) (fun () -> flush s.oc)

let attrs_json attrs =
  Json.Obj (List.map (fun (k, v) -> (k, Json.String v)) attrs)

let span ~id ~parent ~domain ~depth ~name ~start ~dur ~attrs =
  emit_json
    (Json.Obj
       ([
          ("type", Json.String "span");
          ("id", Json.Int id);
          ("parent", match parent with Some p -> Json.Int p | None -> Json.Null);
          ("domain", Json.Int domain);
          ("depth", Json.Int depth);
          ("name", Json.String name);
          ("start", Json.Float start);
          ("dur", Json.Float dur);
        ]
       @ match attrs with [] -> [] | attrs -> [ ("attrs", attrs_json attrs) ]))

let metric ?span ~kind ~name value =
  emit_json
    (Json.Obj
       ([
          ("type", Json.String "metric");
          ("name", Json.String name);
          ("kind", Json.String kind);
          ("value", value);
          ("t", Json.Float (Clock.elapsed ()));
        ]
       @ match span with Some id -> [ ("span", Json.Int id) ] | None -> []))

let conv ?span (s : History.snapshot) =
  emit_json
    (Json.Obj
       ((("type", Json.String "conv") :: History.snapshot_fields s)
       @ [ ("t", Json.Float (Clock.elapsed ())) ]
       @ match span with Some id -> [ ("span", Json.Int id) ] | None -> []))

let snapshot s =
  List.iter
    (fun (name, sample) ->
      emit_json
        (Json.Obj
           [
             ("type", Json.String "summary");
             ("name", Json.String name);
             ("data", Metrics.sample_to_json sample);
           ]))
    s
