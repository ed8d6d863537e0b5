(* Counters are plain atomic ints.  Gauges and histogram float
   accumulators use the CAS-retry idiom on ['a Atomic.t]: the box read by
   [Atomic.get] is the physical value [compare_and_set] tests against, so
   the loop is correct even though floats are boxed. *)

let rec atomic_add_float a dx =
  let old = Atomic.get a in
  if not (Atomic.compare_and_set a old (old +. dx)) then atomic_add_float a dx

let rec atomic_max_float a x =
  let old = Atomic.get a in
  if x > old && not (Atomic.compare_and_set a old x) then atomic_max_float a x

let rec atomic_min_float a x =
  let old = Atomic.get a in
  if x < old && not (Atomic.compare_and_set a old x) then atomic_min_float a x

(* ----------------------------------------------------- histogram layout *)

(* Fixed log-scale (base-2) buckets shared by every histogram: bucket [i]
   covers [2^(i + min_exp - 1), 2^(i + min_exp)), i.e. values whose
   [frexp] exponent is [i + min_exp].  Bucket 0 additionally catches
   everything below the range (including 0 and negatives); the last
   bucket catches everything above.  2^-31 s ~ 0.5 ns and 2^32 ~ 4e9
   bracket every duration, count and residual the layer records. *)
let min_exp = -31
let nbuckets = 64

let bucket_index v =
  if not (v > 0.) || Float.is_nan v then 0
  else if v = Float.infinity then nbuckets - 1 (* frexp inf reports exponent 0 *)
  else begin
    let _, e = Float.frexp v in
    (* v in [2^(e-1), 2^e) *)
    let i = e - min_exp in
    if i < 0 then 0 else if i >= nbuckets then nbuckets - 1 else i
  end

let bucket_lower i =
  if i <= 0 then 0. else Float.ldexp 1. (i + min_exp - 1)

let bucket_upper i =
  if i >= nbuckets - 1 then Float.infinity else Float.ldexp 1. (i + min_exp)

type hist = {
  buckets : int Atomic.t array;
  count : int Atomic.t;
  sum : float Atomic.t;
  vmin : float Atomic.t;
  vmax : float Atomic.t;
}

let hist_make () =
  {
    buckets = Array.init nbuckets (fun _ -> Atomic.make 0);
    count = Atomic.make 0;
    sum = Atomic.make 0.;
    vmin = Atomic.make Float.infinity;
    vmax = Atomic.make Float.neg_infinity;
  }

let hist_observe h v =
  ignore (Atomic.fetch_and_add h.buckets.(bucket_index v) 1);
  ignore (Atomic.fetch_and_add h.count 1);
  atomic_add_float h.sum v;
  atomic_min_float h.vmin v;
  atomic_max_float h.vmax v

(* -------------------------------------------------------------- registry *)

type instrument =
  | Counter_i of int Atomic.t
  | Gauge_i of float Atomic.t
  | Hist_i of hist

type t = { mutex : Mutex.t; table : (string, instrument) Hashtbl.t }
type registry = t

let create () = { mutex = Mutex.create (); table = Hashtbl.create 64 }
let default = create ()

let locked r f =
  Mutex.lock r.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock r.mutex) f

let intern r name make describe =
  locked r (fun () ->
      match Hashtbl.find_opt r.table name with
      | Some existing -> (
        match describe existing with
        | Some v -> v
        | None -> invalid_arg (Printf.sprintf "Metrics: %S already registered with another kind" name))
      | None ->
        let i, v = make () in
        Hashtbl.add r.table name i;
        v)

module Counter = struct
  type nonrec t = int Atomic.t

  let make ?(registry = default) name =
    intern registry name
      (fun () ->
        let a = Atomic.make 0 in
        (Counter_i a, a))
      (function Counter_i a -> Some a | _ -> None)

  let add c n = if Flags.metrics_on () then ignore (Atomic.fetch_and_add c n)
  let incr c = add c 1
  let value c = Atomic.get c
end

module Gauge = struct
  type nonrec t = float Atomic.t

  let make ?(registry = default) name =
    intern registry name
      (fun () ->
        let a = Atomic.make 0. in
        (Gauge_i a, a))
      (function Gauge_i a -> Some a | _ -> None)

  let set g v = if Flags.metrics_on () then Atomic.set g v
  let add g dv = if Flags.metrics_on () then atomic_add_float g dv
  let value g = Atomic.get g
end

module Histogram = struct
  type nonrec t = hist

  let make ?(registry = default) name =
    intern registry name
      (fun () ->
        let h = hist_make () in
        (Hist_i h, h))
      (function Hist_i h -> Some h | _ -> None)

  let observe h v = if Flags.metrics_on () then hist_observe h v
  let count h = Atomic.get h.count
  let sum h = Atomic.get h.sum
  let nbuckets = nbuckets
  let bucket_index = bucket_index
  let bucket_lower = bucket_lower
  let bucket_upper = bucket_upper
end

(* observe a span duration into the ["span.<name>"] histogram; the
   registry lookup only runs when metrics are on, so the disabled path
   never touches the mutex *)
let span_duration ?(registry = default) name dur =
  if Flags.metrics_on () then begin
    let h = Histogram.make ~registry ("span." ^ name) in
    hist_observe h dur
  end

(* per-span allocation deltas live under "alloc.", not "span.": the
   bench phase harvester and the obs_check capacity check fold every
   "span.*" histogram into wall-clock sums, and words are not seconds *)
let span_alloc ?(registry = default) name words =
  if Flags.metrics_on () then begin
    let h = Histogram.make ~registry ("alloc." ^ name) in
    hist_observe h words
  end

let reset ?(registry = default) () =
  locked registry (fun () ->
      Hashtbl.iter
        (fun _ i ->
          match i with
          | Counter_i a -> Atomic.set a 0
          | Gauge_i a -> Atomic.set a 0.
          | Hist_i h ->
            Array.iter (fun b -> Atomic.set b 0) h.buckets;
            Atomic.set h.count 0;
            Atomic.set h.sum 0.;
            Atomic.set h.vmin Float.infinity;
            Atomic.set h.vmax Float.neg_infinity)
        registry.table)

(* ------------------------------------------------------------- snapshots *)

type hist_snapshot = {
  buckets : int array;
  count : int;
  sum : float;
  min : float;  (** [infinity] when empty *)
  max : float;  (** [neg_infinity] when empty *)
}

type sample = C of int | G of float | H of hist_snapshot
type snapshot = (string * sample) list

let snapshot ?(registry = default) () =
  let rows =
    locked registry (fun () ->
        Hashtbl.fold
          (fun name i acc ->
            let s =
              match i with
              | Counter_i a -> C (Atomic.get a)
              | Gauge_i a -> G (Atomic.get a)
              | Hist_i h ->
                H
                  {
                    buckets = Array.map Atomic.get h.buckets;
                    count = Atomic.get h.count;
                    sum = Atomic.get h.sum;
                    min = Atomic.get h.vmin;
                    max = Atomic.get h.vmax;
                  }
            in
            (name, s) :: acc)
          registry.table [])
  in
  List.sort (fun (a, _) (b, _) -> compare a b) rows

(* Percentile estimate from the log2 buckets: walk the cumulative
   counts to the bucket holding rank [q * count], then interpolate
   linearly inside that bucket, clamped to the observed [min, max] so
   the estimate never leaves the data range.  Resolution is therefore
   one octave at worst.  NaN on an empty histogram. *)
let percentile (h : hist_snapshot) q =
  if h.count = 0 then Float.nan
  else begin
    let q = Float.max 0. (Float.min 1. q) in
    let target = q *. float_of_int h.count in
    let rec go i cum =
      if i >= nbuckets then h.max
      else begin
        let n = h.buckets.(i) in
        if n > 0 && float_of_int (cum + n) >= target then begin
          let lo = Float.max (bucket_lower i) h.min in
          let hi = Float.min (bucket_upper i) h.max in
          let lo = Float.min lo hi in
          let frac = Float.max 0. ((target -. float_of_int cum) /. float_of_int n) in
          lo +. (frac *. (hi -. lo))
        end
        else go (i + 1) (cum + n)
      end
    in
    go 0 0
  end

let sample_to_json = function
  | C n -> Json.Obj [ ("kind", Json.String "counter"); ("value", Json.Int n) ]
  | G v -> Json.Obj [ ("kind", Json.String "gauge"); ("value", Json.Float v) ]
  | H h ->
    let nonzero =
      List.filteri (fun i _ -> h.buckets.(i) > 0) (Array.to_list (Array.mapi (fun i n -> (i, n)) h.buckets))
    in
    Json.Obj
      [
        ("kind", Json.String "histogram");
        ("count", Json.Int h.count);
        ("sum", Json.Float h.sum);
        ("min", Json.Float (if h.count = 0 then Float.nan else h.min));
        ("max", Json.Float (if h.count = 0 then Float.nan else h.max));
        ("p50", Json.Float (percentile h 0.50));
        ("p95", Json.Float (percentile h 0.95));
        ("p99", Json.Float (percentile h 0.99));
        ( "buckets",
          Json.List
            (List.map
               (fun (i, n) ->
                 Json.Obj [ ("ge", Json.Float (bucket_lower i)); ("n", Json.Int n) ])
               nonzero) );
      ]

let pp_summary ppf s =
  let open Format in
  fprintf ppf "@[<v>%-32s %-9s %s@," "metric" "kind" "value";
  fprintf ppf "%s@," (String.make 72 '-');
  List.iter
    (fun (name, sample) ->
      match sample with
      | C n -> fprintf ppf "%-32s %-9s %d@," name "counter" n
      | G v -> fprintf ppf "%-32s %-9s %.6g@," name "gauge" v
      | H h ->
        if h.count = 0 then fprintf ppf "%-32s %-9s (empty)@," name "histogram"
        else
          fprintf ppf
            "%-32s %-9s n=%d sum=%.6g avg=%.3g min=%.3g max=%.3g p50=%.3g p95=%.3g p99=%.3g@,"
            name "histogram" h.count h.sum
            (h.sum /. float_of_int h.count)
            h.min h.max (percentile h 0.50) (percentile h 0.95) (percentile h 0.99))
    s;
  fprintf ppf "@]"
