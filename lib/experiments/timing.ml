type 'a measurement = { result : 'a; min_ms : float }

(* the timed rows take from well under a millisecond to ~0.1 s, so one
   run is mostly host noise; the fastest of this many is the steadiest
   estimate of their cost (on 2 vCPUs Table I's B(500) read 0.41-0.70 ms
   over 12 runs, where the median of 3 read 0.48-0.82 ms) *)
let repeats = 15

(* Each repeat runs under Obs.Span.time, so a traced run shows every
   repeat as a "timing.repeat" span and the measured wall time is the
   span clock's — one clock for Table I and for the trace. *)
let measure f =
  let run () = Ttsv_obs.Span.time ~name:"timing.repeat" f in
  let result, first = run () in
  let fastest = ref first in
  for _ = 2 to repeats do
    fastest := Float.min !fastest (snd (run ()))
  done;
  { result; min_ms = !fastest *. 1000. }
