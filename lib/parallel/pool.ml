(* A kernel published into an open region: a chunk queue drained by
   whichever domains are awake.  [r_step] captures its own exceptions, so
   [r_done] always reaches [r_nchunks]. *)
type rtask = {
  r_nchunks : int;
  r_next : int Atomic.t;
  r_done : int Atomic.t;
  r_step : int -> unit;
}

type t = {
  ndomains : int;
  mutable workers : unit Domain.t array;
  m : Mutex.t;
  work_ready : Condition.t;
  work_done : Condition.t;
  mutable gen : int;
  mutable remaining : int;
  mutable busy : bool;
  mutable stopped : bool;
  (* region state: one [with_region] keeps the workers resident while
     the owner publishes one or many kernels to them *)
  region_task : rtask option Atomic.t;
  region_gen : int Atomic.t;
  region_close : bool Atomic.t;
  region_parked : int Atomic.t;
  region_ready : Condition.t;
  mutable in_region : bool;
  mutable region_owner : int;
  (* crash containment: workers that died (exception or injected fault)
     since creation, and whether the currently open region has lost one —
     once it has, the owner stops publishing kernels to it and runs them
     inline instead *)
  failures : int Atomic.t;
  region_degraded : bool Atomic.t;
}

let max_domains = 64
let default_chunk = 1024
let min_parallel = 2048

(* Below this size a kernel issued outside any region runs inline: going
   parallel opens a region just for it, and waking then joining the
   workers (condvar broadcast + futex wakeups) only amortizes on
   decidedly large vectors.  Inside an open region the cheaper
   [min_parallel] cutoff applies instead. *)
let lone_kernel_min = 65536

(* How long a resident worker spins between kernels before parking on
   the region condvar.  Deliberately short: on an oversubscribed (or
   single-core) host a spinning worker steals the owner's timeslice, and
   waking a parked worker costs the owner only one broadcast. *)
let region_spin = 256

(* ----------------------------------------------------- observability *)

module Obs_flags = Ttsv_obs.Flags
module Obs_span = Ttsv_obs.Span
module Obs_metrics = Ttsv_obs.Metrics

let m_regions = Obs_metrics.Counter.make "pool.regions"
let m_kernels = Obs_metrics.Counter.make "pool.kernels"
let m_idle_s = Obs_metrics.Gauge.make "pool.idle_seconds"
let m_worker_failures = Obs_metrics.Counter.make "pool.worker_failures"

(* ------------------------------------------------- worker identification *)

(* Set while a domain is executing pool task bodies (workers for their
   whole region, the owner while it drains a kernel's chunks).  Any pool
   entry point that finds the flag set runs inline instead: nested
   fan-out from inside an outer region would only oversubscribe the
   machine — and, worse, serialize every inner kernel on the pool
   mutex. *)
let am_worker_key = Domain.DLS.new_key (fun () -> ref false)
let am_worker () = !(Domain.DLS.get am_worker_key)
let set_am_worker v = Domain.DLS.get am_worker_key := v

let env_domains () =
  match Sys.getenv_opt "TTSV_DOMAINS" with
  | None -> None
  | Some s -> (
    match int_of_string_opt (String.trim s) with
    | Some n when n >= 1 && n <= max_domains -> Some n
    | Some _ | None -> None)

let default_domains () =
  match env_domains () with
  | Some n -> n
  | None -> Stdlib.min (Domain.recommended_domain_count ()) 8

(* A worker crashed (an injected fault, or a bug in the region loop;
   chunk-body exceptions are captured closer to the kernel and never
   reach here).  Count it, degrade the open region to owner-only
   dispatch, and keep the worker alive for the next region: the join
   protocol below still decrements [remaining], so the owner never
   deadlocks on a dead worker. *)
let note_worker_failure pool =
  Atomic.incr pool.failures;
  Atomic.set pool.region_degraded true;
  if Obs_flags.enabled () then Obs_metrics.Counter.incr m_worker_failures

(* ------------------------------------------------------------- regions *)

let drain_rtask t =
  let continue = ref true in
  while !continue do
    let c = Atomic.fetch_and_add t.r_next 1 in
    if c >= t.r_nchunks then continue := false
    else begin
      t.r_step c;
      Atomic.incr t.r_done
    end
  done

(* What a worker runs for the whole lifetime of a region: watch the
   kernel generation counter, drain whatever kernel is current, park on
   [region_ready] when nothing new shows up within the spin budget.  The
   parking handshake is lost-wakeup-free: the worker re-checks the
   generation under the mutex, and the owner bumps the (sequentially
   consistent) generation before reading [region_parked]. *)
let region_worker pool =
  let obs = Obs_flags.enabled () in
  let work () =
    let last = ref (-1) in
    let spin = ref 0 in
    let continue = ref true in
    (* CPU burned between kernels: the spin stretches only — parked time
       costs nothing and is not counted.  Feeds [pool.idle_seconds], the
       gauge obs_check asserts stays bounded. *)
    let idle = ref 0. in
    let spin_t0 = ref Float.nan in
    let close_idle () =
      if obs && not (Float.is_nan !spin_t0) then begin
        idle := !idle +. (Ttsv_obs.Clock.now () -. !spin_t0);
        spin_t0 := Float.nan
      end
    in
    Fun.protect
      ~finally:(fun () ->
        close_idle ();
        if obs then Obs_metrics.Gauge.add m_idle_s !idle)
      (fun () ->
        while !continue do
          if Atomic.get pool.region_close then continue := false
          else begin
            let g = Atomic.get pool.region_gen in
            if g <> !last then begin
              close_idle ();
              last := g;
              spin := 0;
              (* worker-exclusive probe point: a fault injected here is
                 contained by the catch-all in [worker] and only costs
                 the region this domain *)
              Fault.stall "stall";
              Fault.raise_if "worker";
              match Atomic.get pool.region_task with
              | Some t -> drain_rtask t
              | None -> ()
            end
            else if !spin < region_spin then begin
              if obs && Float.is_nan !spin_t0 then spin_t0 := Ttsv_obs.Clock.now ();
              incr spin;
              Domain.cpu_relax ()
            end
            else begin
              close_idle ();
              Mutex.lock pool.m;
              Atomic.incr pool.region_parked;
              while
                Atomic.get pool.region_gen = !last && not (Atomic.get pool.region_close)
              do
                Condition.wait pool.region_ready pool.m
              done;
              Atomic.decr pool.region_parked;
              Mutex.unlock pool.m;
              spin := 0
            end
          end
        done)
  in
  if obs then Obs_span.with_ ~name:"pool.worker" work else work ()

(* Each worker parks on [work_ready] until the generation counter moves
   (a region opened), stays resident in [region_worker] until the region
   closes, then reports back on [work_done].  The region runs under a
   catch-all: an escaping exception must not skip the [remaining]
   decrement, or [wait_done] would hang forever. *)
let worker pool =
  set_am_worker true;
  let last_gen = ref 0 in
  let rec loop () =
    Mutex.lock pool.m;
    while (not pool.stopped) && pool.gen = !last_gen do
      Condition.wait pool.work_ready pool.m
    done;
    if pool.stopped then Mutex.unlock pool.m
    else begin
      last_gen := pool.gen;
      Mutex.unlock pool.m;
      (* worker-exclusive probe point: the owner never executes this
         line, so an injected crash or stall only ever costs a worker *)
      (match
         Fault.stall "stall";
         Fault.raise_if "worker";
         region_worker pool
       with
      | () -> ()
      | exception _ -> note_worker_failure pool);
      Mutex.lock pool.m;
      pool.remaining <- pool.remaining - 1;
      if pool.remaining = 0 then Condition.broadcast pool.work_done;
      Mutex.unlock pool.m;
      loop ()
    end
  in
  loop ()

let make ndomains =
  {
    ndomains;
    workers = [||];
    m = Mutex.create ();
    work_ready = Condition.create ();
    work_done = Condition.create ();
    gen = 0;
    remaining = 0;
    busy = false;
    stopped = false;
    region_task = Atomic.make None;
    region_gen = Atomic.make 0;
    region_close = Atomic.make false;
    region_parked = Atomic.make 0;
    region_ready = Condition.create ();
    in_region = false;
    region_owner = -1;
    failures = Atomic.make 0;
    region_degraded = Atomic.make false;
  }

let create ?domains () =
  let n = match domains with Some n -> n | None -> default_domains () in
  if n < 1 || n > max_domains then
    invalid_arg (Printf.sprintf "Pool.create: domains must be in [1, %d]" max_domains);
  let pool = make n in
  pool.workers <- Array.init (n - 1) (fun _ -> Domain.spawn (fun () -> worker pool));
  pool

let seq = make 1
let domains pool = pool.ndomains

let shutdown pool =
  Mutex.lock pool.m;
  if pool.stopped then Mutex.unlock pool.m
  else begin
    pool.stopped <- true;
    Condition.broadcast pool.work_ready;
    Mutex.unlock pool.m;
    Array.iter Domain.join pool.workers;
    pool.workers <- [||]
  end

let with_pool ?domains f =
  let pool = create ?domains () in
  Fun.protect ~finally:(fun () -> shutdown pool) (fun () -> f pool)

(* Open a region: wake the workers into [region_worker] without blocking
   the owner.  Returns [false] (and does nothing) when the pool is
   already busy, so the caller can fall back to running inline. *)
let post pool =
  Mutex.lock pool.m;
  if pool.stopped then begin
    Mutex.unlock pool.m;
    invalid_arg "Pool: used after shutdown"
  end;
  if pool.busy then begin
    Mutex.unlock pool.m;
    false
  end
  else begin
    pool.busy <- true;
    Atomic.set pool.region_degraded false;
    pool.gen <- pool.gen + 1;
    pool.remaining <- Array.length pool.workers;
    Condition.broadcast pool.work_ready;
    Mutex.unlock pool.m;
    true
  end

let wait_done pool =
  Mutex.lock pool.m;
  while pool.remaining > 0 do
    Condition.wait pool.work_done pool.m
  done;
  pool.busy <- false;
  Mutex.unlock pool.m

let wake_region pool =
  if Atomic.get pool.region_parked > 0 then begin
    Mutex.lock pool.m;
    Condition.broadcast pool.region_ready;
    Mutex.unlock pool.m
  end

(* Owner-side kernel dispatch inside an open region: publish the chunk
   queue, help drain it, then wait for straggler chunks claimed by
   workers.  The straggler wait spins briefly and then sleeps: on an
   oversubscribed host the claiming worker needs the CPU to finish. *)
let region_dispatch pool nchunks apply =
  let failed : exn option Atomic.t = Atomic.make None in
  let step c =
    (* claim-but-skip once something failed: every chunk is still
       accounted (r_done reaches r_nchunks, so the join below cannot
       hang) but no further bodies run — what lets a budget expiry or a
       body exception abort the remaining chunks promptly *)
    if Atomic.get failed = None then
      try apply c with e -> ignore (Atomic.compare_and_set failed None (Some e))
  in
  let t =
    { r_nchunks = nchunks; r_next = Atomic.make 0; r_done = Atomic.make 0; r_step = step }
  in
  Atomic.set pool.region_task (Some t);
  Atomic.incr pool.region_gen;
  wake_region pool;
  (* the owner runs chunk bodies too: flag it like a worker so a body
     that calls back into the pool (a sweep point's FV solve) runs
     inline.  [step] captures every exception, so the reset is reached. *)
  set_am_worker true;
  drain_rtask t;
  set_am_worker false;
  let spins = ref 0 in
  while Atomic.get t.r_done < nchunks do
    incr spins;
    if !spins <= 10_000 then Domain.cpu_relax ()
    else begin
      spins := 0;
      Unix.sleepf 2e-4
    end
  done;
  Atomic.set pool.region_task None;
  if Obs_flags.enabled () then Obs_metrics.Counter.incr m_kernels;
  match Atomic.get failed with Some e -> raise e | None -> ()

let with_region pool f =
  if Array.length pool.workers = 0 || am_worker () || not (post pool) then f ()
  else begin
    pool.region_owner <- (Domain.self () :> int);
    pool.in_region <- true;
    let finish () =
      pool.in_region <- false;
      pool.region_owner <- -1;
      Atomic.set pool.region_close true;
      Mutex.lock pool.m;
      Condition.broadcast pool.region_ready;
      Mutex.unlock pool.m;
      wait_done pool;
      Atomic.set pool.region_close false
    in
    if Obs_flags.enabled () then begin
      Obs_metrics.Counter.incr m_regions;
      Obs_span.with_ ~name:"pool.region" (fun () -> Fun.protect ~finally:finish f)
    end
    else Fun.protect ~finally:finish f
  end

let in_region pool = pool.in_region && pool.region_owner = (Domain.self () :> int)

(* ------------------------------------------------------------ kernels *)

let chunk_count n chunk = (n + chunk - 1) / chunk

let for_chunks ?(chunk = default_chunk) ?min_size ?budget pool n body =
  if n < 0 then invalid_arg "Pool.for_chunks: negative size";
  if chunk < 1 then invalid_arg "Pool.for_chunks: chunk must be >= 1";
  (* [seq] is never stopped; a shut-down pool must refuse even work small
     enough for the sequential fallback (the mli's contract) *)
  if pool.stopped then invalid_arg "Pool: used after shutdown";
  if n > 0 then begin
    let nchunks = chunk_count n chunk in
    let apply c =
      (* one budget poll per chunk: on the parallel path the raise is
         captured like any body exception and re-raised after the join,
         so no chunk claim is ever lost to an expiry *)
      (match budget with Some b -> Budget.check_exn b | None -> ());
      body ~lo:(c * chunk) ~hi:(Stdlib.min n ((c + 1) * chunk))
    in
    let seq_run () =
      (* sequential fallback: the identical chunk walk, in order *)
      for c = 0 to nchunks - 1 do
        apply c
      done
    in
    if Array.length pool.workers = 0 || nchunks = 1 || am_worker () then seq_run ()
    else if in_region pool then
      if n < Option.value min_size ~default:min_parallel || Atomic.get pool.region_degraded
      then seq_run ()
      else region_dispatch pool nchunks apply
    else if n < Option.value min_size ~default:lone_kernel_min then seq_run ()
    else
      (* a lone kernel opens a region of its own; when the pool is busy
         [with_region] opens none and the kernel runs inline.  A worker
         that crashes on the way in never claims a chunk, so the owner
         drains them all *)
      with_region pool (fun () ->
          if in_region pool then region_dispatch pool nchunks apply else seq_run ())
  end

let parallel_for ?chunk ?min_size ?budget pool n f =
  for_chunks ?chunk ?min_size ?budget pool n (fun ~lo ~hi ->
      for i = lo to hi - 1 do
        f i
      done)

let map_reduce ?(chunk = default_chunk) ?min_size ?budget pool ~n ~map ~reduce ~init =
  if n < 0 then invalid_arg "Pool.map_reduce: negative size";
  if chunk < 1 then invalid_arg "Pool.map_reduce: chunk must be >= 1";
  if n = 0 then init
  else begin
    let nchunks = chunk_count n chunk in
    let partials = Array.make nchunks None in
    (* writes land in disjoint slots keyed by chunk index, so the fold
       below sees them in deterministic order no matter who computed what *)
    for_chunks ~chunk ?min_size ?budget pool n (fun ~lo ~hi ->
        partials.(lo / chunk) <- Some (map ~lo ~hi));
    Array.fold_left
      (fun acc p -> match p with Some v -> reduce acc v | None -> assert false)
      init partials
  end

let map_array ?(chunk = 1) ?budget pool f xs =
  let n = Array.length xs in
  if n = 0 then [||]
  else begin
    let out = Array.make n None in
    (* min_size 2: sweep points are coarse, parallelize from two tasks up *)
    for_chunks ~chunk ~min_size:2 ?budget pool n (fun ~lo ~hi ->
        for i = lo to hi - 1 do
          out.(i) <- Some (f xs.(i))
        done);
    Array.map (function Some v -> v | None -> assert false) out
  end

let worker_failures pool = Atomic.get pool.failures
