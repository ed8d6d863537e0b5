(** Wall-clock timing for the runtime columns of Table I and §IV-E.

    Built on {!Ttsv_obs.Span.time}: every repeat is measured on the
    span wall clock and shows up as a ["timing.repeat"] span when a
    trace is open. *)

type 'a measurement = {
  result : 'a;  (** the value produced by the first run *)
  min_ms : float;  (** the fastest run's elapsed milliseconds *)
}

val measure : (unit -> 'a) -> 'a measurement
(** [measure f] runs [f] 15 times and reports the fastest run, the
    least noisy estimate of its cost on a shared host.  The timed
    functions are deterministic, so the first run's result stands for
    all of them. *)
