module Rng = Ftr_prng.Rng
module Debug = Ftr_debug.Debug
module Flag = Ftr_obs.Flag
module Metrics = Ftr_obs.Metrics
module Span = Ftr_obs.Span

let sequential_forced () =
  match Sys.getenv_opt "FTR_EXEC_SEQ" with
  | Some ("1" | "true" | "on" | "yes") -> true
  | Some _ | None -> false

let with_sequential_forced on f =
  let saved = Sys.getenv_opt "FTR_EXEC_SEQ" in
  Unix.putenv "FTR_EXEC_SEQ" (if on then "1" else "0");
  Fun.protect f ~finally:(fun () -> Unix.putenv "FTR_EXEC_SEQ" (Option.value saved ~default:"0"))

let default_jobs () =
  if sequential_forced () then 1 else max 1 (Domain.recommended_domain_count ())

(* Nested parallelism guard: a job that itself asks for a crew must not
   spawn a second generation of domains under the first (the pool would
   oversubscribe quadratically). Worker domains mark themselves and any
   crew created there degrades to inline execution. *)
let in_worker_key = Domain.DLS.new_key (fun () -> false)

(* A worker's domain state: the nested-crew guard, and telemetry off
   because the obs registries are not domain-safe (see pool.mli). The
   caller holds it only while it drains as worker 0. *)
let enter_worker on =
  Domain.DLS.set in_worker_key on;
  Flag.suppress_in_domain on

(* Two generators share a stream iff their next draws agree; copies probe
   that without advancing either. One draw is no proof of equality in
   general, but the root and every derived stream differ in their first
   word with overwhelming probability, which is what the regression guard
   needs. *)
let same_stream a b = a == b || Rng.bits64 (Rng.copy a) = Rng.bits64 (Rng.copy b)

(* ------------------------------------------------------------------ *)
(* The scheduler: a crew of parked workers plus the caller              *)
(* ------------------------------------------------------------------ *)

(* A crew of [jobs] workers is the caller (worker 0) and [jobs - 1]
   domains parked on a condition variable between rounds. The caller
   publishes (task, count) under the mutex, bumps a generation counter,
   drains the shared cursor itself and then waits until every parked
   worker has drained it too and checked back in. The mutex hand-offs
   give the happens-before edges in both directions, so effects written
   by workers during a round are visible to the caller when [run]
   returns — the guarantee [Domain.join] gives.

   Rounds are effects-only ([f : int -> unit]); results travel through
   caller-owned slots where index [i] is written only by the job for
   [i], so the deterministic-output contract is the caller's chunking
   discipline, not this scheduler's. Which worker runs which index is
   unspecified; only effects keyed by index are meaningful. [map] is one
   round on a crew of its own. *)

type resident = {
  r_jobs : int; (* workers, the caller included; 1 = everything runs inline *)
  mutable r_task : int -> unit;
  mutable r_count : int;
  r_cursor : int Atomic.t;
  r_mutex : Mutex.t;
  r_rouse : Condition.t; (* parked workers wait here for a generation bump *)
  r_settle : Condition.t; (* the caller waits here for check-ins *)
  mutable r_generation : int;
  mutable r_checked_in : int;
  mutable r_stop : bool;
  r_error : exn option Atomic.t; (* the round's first job exception *)
  r_busy : float array; (* worker [w]'s busy seconds in the last round *)
  mutable r_domains : unit Domain.t array;
  mutable r_rounds : int;
}

let resident_jobs r = r.r_jobs


(* The one cursor loop. Chunks: enough per worker (4x) that an uneven job
   mix still balances, big enough that the atomic cursor is not
   contended. A job's exception stops this worker and is kept for the
   caller; the other workers finish the round. *)
let drain r w =
  let chunk = max 1 (r.r_count / (r.r_jobs * 4)) in
  let t0 = Clock.now () in
  (try
     let lo = ref (Atomic.fetch_and_add r.r_cursor chunk) in
     while !lo < r.r_count do
       for i = !lo to min (!lo + chunk) r.r_count - 1 do
         r.r_task i
       done;
       lo := Atomic.fetch_and_add r.r_cursor chunk
     done
   with e -> ignore (Atomic.compare_and_set r.r_error None (Some e)));
  r.r_busy.(w) <- Clock.now () -. t0

let parked_worker r w () =
  enter_worker true;
  let rec park seen =
    Mutex.lock r.r_mutex;
    while (not r.r_stop) && r.r_generation = seen do
      Condition.wait r.r_rouse r.r_mutex
    done;
    let seen = r.r_generation and stopped = r.r_stop in
    Mutex.unlock r.r_mutex;
    if not stopped then begin
      drain r w;
      Mutex.lock r.r_mutex;
      r.r_checked_in <- r.r_checked_in + 1;
      Condition.signal r.r_settle;
      Mutex.unlock r.r_mutex;
      park seen
    end
  in
  park 0

(* The sequential conditions, applied once when a crew or a [map] is
   sized: a crew's worker count is part of its identity (pool.mli). *)
let effective jobs = if sequential_forced () || Domain.DLS.get in_worker_key then 1 else jobs

let crew jobs =
  let r =
    {
      r_jobs = jobs;
      r_task = ignore;
      r_count = 0;
      r_cursor = Atomic.make 0;
      r_mutex = Mutex.create ();
      r_rouse = Condition.create ();
      r_settle = Condition.create ();
      r_generation = 0;
      r_checked_in = 0;
      r_stop = false;
      r_error = Atomic.make None;
      r_busy = Array.make jobs 0.0;
      r_domains = [||];
      r_rounds = 0;
    }
  in
  r.r_domains <- Array.init (jobs - 1) (fun w -> Domain.spawn (parked_worker r (w + 1)));
  r

let stop r =
  Mutex.lock r.r_mutex;
  r.r_stop <- true;
  Condition.broadcast r.r_rouse;
  Mutex.unlock r.r_mutex;
  Array.iter Domain.join r.r_domains

let create_resident ?jobs () =
  let jobs = match jobs with Some j -> j | None -> default_jobs () in
  if jobs < 1 then invalid_arg "Pool.with_resident: jobs must be >= 1";
  let r = crew (effective jobs) in
  if r.r_jobs > 1 && Flag.enabled () then
    Metrics.set_gauge "exec_resident_workers" (float_of_int r.r_jobs);
  r

let run_resident r ~count f =
  if count < 0 then invalid_arg "Pool.run_resident: count must be non-negative";
  if r.r_stop then invalid_arg "Pool.run_resident: pool already shut down";
  r.r_rounds <- r.r_rounds + 1;
  if r.r_jobs = 1 || count <= 1 then
    for i = 0 to count - 1 do
      f i
    done
  else begin
    Mutex.lock r.r_mutex;
    r.r_task <- f;
    r.r_count <- count;
    Atomic.set r.r_cursor 0;
    r.r_checked_in <- 0;
    r.r_generation <- r.r_generation + 1;
    Condition.broadcast r.r_rouse;
    Mutex.unlock r.r_mutex;
    let outer = Domain.DLS.get in_worker_key in
    enter_worker true;
    drain r 0;
    enter_worker outer;
    Mutex.lock r.r_mutex;
    while r.r_checked_in < r.r_jobs - 1 do
      Condition.wait r.r_settle r.r_mutex
    done;
    r.r_task <- ignore;
    Mutex.unlock r.r_mutex;
    match Atomic.exchange r.r_error None with Some e -> raise e | None -> ()
  end;
  if Flag.enabled () then Metrics.incr_by "exec_jobs_completed_total" count

let shutdown_resident r =
  if not r.r_stop then begin
    stop r;
    if Flag.enabled () then begin
      Metrics.set_gauge "exec_resident_workers" 0.0;
      Metrics.incr_by "exec_resident_rounds_total" r.r_rounds
    end
  end

let with_resident ?jobs f =
  let r = create_resident ?jobs () in
  Fun.protect ~finally:(fun () -> shutdown_resident r) (fun () -> f r)

(* One round on a crew of its own. The crew is internal, so it reports as
   a pool run, not as a resident. A single worker runs inline, unboxed. *)
let map ?jobs ~count f =
  if count < 0 then invalid_arg "Pool.map: count must be non-negative";
  let jobs = match jobs with Some j -> j | None -> default_jobs () in
  if jobs < 1 then invalid_arg "Pool.map: jobs must be >= 1";
  let jobs = effective (min jobs count) in
  if jobs <= 1 then begin
    let results = Array.init count f in
    if Flag.enabled () then Metrics.incr_by "exec_jobs_completed_total" count;
    results
  end
  else
    Span.time "exec.pool.run" (fun () ->
        if Flag.enabled () then Metrics.set_gauge "exec_queue_depth" (float_of_int count);
        let results = Array.make count None in
        let r = crew jobs in
        (* Pool telemetry once the crew has joined, also when a job raised. *)
        let finish () =
          stop r;
          if Flag.enabled () then begin
            Metrics.set_gauge "exec_queue_depth" 0.0;
            Metrics.set_gauge "exec_pool_workers" (float_of_int jobs);
            Array.iteri
              (fun w t ->
                Metrics.observe ~labels:[ ("worker", string_of_int w) ] "exec_worker_busy_seconds" t)
              r.r_busy
          end
        in
        Fun.protect ~finally:finish (fun () ->
            run_resident r ~count (fun i -> results.(i) <- Some (f i)));
        (* Every slot is filled: each index ran once and no job raised. *)
        Array.map Option.get results)

let map_seeded ?jobs ~seed ~count f =
  let rngs = Array.init count (fun index -> Seed.rng_for ~seed ~index) in
  Debug.check
    (fun () ->
      let root = Seed.root ~seed in
      not (Array.exists (fun rng -> same_stream rng root) rngs))
    "Pool.map_seeded: a job received the root generator (seed %d)" seed;
  map ?jobs ~count (fun i -> f ~index:i ~rng:rngs.(i))
