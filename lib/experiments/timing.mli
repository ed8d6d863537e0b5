(** Wall-clock timing for the runtime columns of Table I and §IV-E.

    Built on {!Ttsv_obs.Span.time}: every repeat is measured on the
    span wall clock and shows up as a ["timing.repeat"] span when a
    trace is open. *)

type 'a measurement = {
  result : 'a;  (** the value produced by the {e median} run *)
  min_ms : float;
  median_ms : float;
  max_ms : float;
}

val measure : ?repeats:int -> ?name:string -> (unit -> 'a) -> 'a measurement
(** [measure f] runs [f] [repeats] times (default 3) and reports the
    min/median/max elapsed milliseconds together with the result of the
    median run — so warm-up jitter is visible instead of hidden behind a
    single number.  Raises [Invalid_argument] when [repeats < 1]. *)
