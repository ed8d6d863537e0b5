type 'a measurement = { result : 'a; min_ms : float; median_ms : float; max_ms : float }

(* Each repeat runs under Obs.Span.time, so a traced run shows every
   repeat as a "timing.repeat" span and the measured wall time is the
   span clock's — one clock for Table I and for the trace. *)
let measure ?(repeats = 3) ?(name = "timing.repeat") f =
  if repeats < 1 then invalid_arg "Timing.measure: repeats must be >= 1";
  let results = Array.make repeats None in
  let samples = Array.make repeats 0. in
  for i = 0 to repeats - 1 do
    let r, dt = Ttsv_obs.Span.time ~name f in
    results.(i) <- Some r;
    samples.(i) <- dt *. 1000.
  done;
  (* order run indices by their time so the reported result is the one
     the median sample actually produced, not whichever ran last *)
  let order = Array.init repeats Fun.id in
  Array.sort (fun i j -> compare (samples.(i), i) (samples.(j), j)) order;
  let at k = samples.(order.(k)) in
  let median_run = order.(repeats / 2) in
  let result = match results.(median_run) with Some r -> r | None -> assert false in
  { result; min_ms = at 0; median_ms = samples.(median_run); max_ms = at (repeats - 1) }
