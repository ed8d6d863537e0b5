module Interp = Ttsv_numerics.Interp

type t = { points : (float * float) array }

let of_points pts =
  if pts = [] then invalid_arg "Trace.of_points: empty trace";
  List.iter
    (fun (time, scale) ->
      if not (Float.is_finite time && Float.is_finite scale) then
        invalid_arg "Trace.of_points: non-finite sample";
      if scale < 0. then invalid_arg "Trace.of_points: negative scale";
      if time < 0. then invalid_arg "Trace.of_points: negative time")
    pts;
  let points = Array.of_list (List.sort (fun (a, _) (b, _) -> compare a b) pts) in
  (* two samples at one time leave the waveform undefined there *)
  for i = 1 to Array.length points - 1 do
    if fst points.(i) = fst points.(i - 1) then
      invalid_arg (Printf.sprintf "Trace.of_points: duplicate time %g" (fst points.(i)))
  done;
  { points }

let parse text =
  let rows = ref [] in
  let header_allowed = ref true in
  let lineno = ref 0 in
  List.iter
    (fun raw ->
      incr lineno;
      let line = String.trim raw in
      if line <> "" && line.[0] <> '#' then begin
        (match String.split_on_char ',' line with
        | [ a; b ] -> begin
          match (float_of_string_opt (String.trim a), float_of_string_opt (String.trim b)) with
          | Some time, Some scale -> rows := (time, scale) :: !rows
          | None, _ | _, None ->
            (* tolerate a single leading header row *)
            if not !header_allowed then
              failwith (Printf.sprintf "Trace.parse: malformed row at line %d" !lineno)
        end
        | _ ->
          if not !header_allowed then
            failwith (Printf.sprintf "Trace.parse: expected two columns at line %d" !lineno));
        header_allowed := false
      end)
    (String.split_on_char '\n' text);
  if !rows = [] then failwith "Trace.parse: no data rows";
  of_points (List.rev !rows)

let load path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> parse (really_input_string ic (in_channel_length ic)))

let scale t time =
  let n = Array.length t.points in
  if n = 1 then snd t.points.(0)
  else begin
    let xs = Array.map fst t.points and ys = Array.map snd t.points in
    Interp.eval (Interp.create ~xs ~ys) time
  end

let duration t = fst t.points.(Array.length t.points - 1)

let peak t = Array.fold_left (fun acc (_, s) -> Float.max acc s) 0. t.points

let average t =
  let n = Array.length t.points in
  if n = 1 then snd t.points.(0)
  else begin
    let acc = ref 0. in
    for i = 0 to n - 2 do
      let t0, s0 = t.points.(i) and t1, s1 = t.points.(i + 1) in
      acc := !acc +. (0.5 *. (s0 +. s1) *. (t1 -. t0))
    done;
    let span = duration t -. fst t.points.(0) in
    if span <= 0. then snd t.points.(0) else !acc /. span
  end

let square_wave ~period ~duty ~high ~low ~samples =
  if period <= 0. then invalid_arg "Trace.square_wave: period must be positive";
  if duty <= 0. || duty >= 1. then invalid_arg "Trace.square_wave: duty outside (0, 1)";
  if high < 0. || low < 0. then invalid_arg "Trace.square_wave: negative levels";
  if samples < 8 then invalid_arg "Trace.square_wave: need at least 8 samples";
  let eps = period *. 1e-6 in
  let pts = ref [] in
  for cycle = 0 to (samples / 4) - 1 do
    let t0 = float_of_int cycle *. period in
    let t_fall = t0 +. (duty *. period) in
    pts :=
      (t0 +. period -. eps, low)
      :: (t_fall, low)
      :: (t_fall -. eps, high)
      :: (t0, high)
      :: !pts
  done;
  of_points !pts
