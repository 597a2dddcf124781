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

(* Nested parallelism guard: a job that itself calls [map] must not spawn
   a second generation of domains under the first (the pool would
   oversubscribe quadratically). Worker domains mark themselves and any
   [map] they run degrades to the sequential path. *)
let in_worker_key = Domain.DLS.new_key (fun () -> false)

let run_sequential ~count f = Array.init count f

(* Chunk size: enough chunks per worker (4x) that an uneven job mix still
   balances, big enough that the atomic cursor is not contended. The
   results are chunking-invariant either way; only wall-clock cares. *)
let chunk_size ~count ~jobs = max 1 (count / (jobs * 4))

let run_parallel ~jobs ~count f =
  let results = Array.make count None in
  let errors = Array.make jobs None in
  let busy = Array.make jobs 0.0 in
  let next = Atomic.make 0 in
  let chunk = chunk_size ~count ~jobs in
  let worker w () =
    Domain.DLS.set in_worker_key true;
    (* The obs registries are not domain-safe; the coordinator reports for
       the pool (see pool.mli). *)
    Flag.suppress_in_domain true;
    let t0 = Clock.now () in
    (try
       let continue = ref true in
       while !continue do
         let lo = Atomic.fetch_and_add next chunk in
         if lo >= count then continue := false
         else
           for i = lo to min (lo + chunk) count - 1 do
             results.(i) <- Some (f i)
           done
       done
     with e -> errors.(w) <- Some e);
    busy.(w) <- Clock.now () -. t0
  in
  if Flag.enabled () then Metrics.set_gauge "exec_queue_depth" (float_of_int count);
  let domains = Array.init jobs (fun w -> Domain.spawn (worker w)) in
  Array.iter Domain.join domains;
  if Flag.enabled () then begin
    Metrics.set_gauge "exec_queue_depth" 0.0;
    Metrics.set_gauge "exec_pool_workers" (float_of_int jobs);
    Array.iteri
      (fun w t ->
        Metrics.observe ~labels:[ ("worker", string_of_int w) ] "exec_worker_busy_seconds" t)
      busy
  end;
  Array.iter (function Some e -> raise e | None -> ()) errors;
  Array.map
    (function
      | Some v -> v
      | None ->
          (* Unreachable: every chunk was consumed and no worker erred. *)
          assert false)
    results

let map ?jobs ~count f =
  if count < 0 then invalid_arg "Pool.map: count must be non-negative";
  let jobs = match jobs with Some j -> j | None -> default_jobs () in
  if jobs < 1 then invalid_arg "Pool.map: jobs must be >= 1";
  let completed r =
    if Flag.enabled () then Metrics.incr_by "exec_jobs_completed_total" count;
    r
  in
  if jobs = 1 || count <= 1 || Domain.DLS.get in_worker_key then
    completed (run_sequential ~count f)
  else
    Span.time "exec.pool.run" (fun () -> completed (run_parallel ~jobs:(min jobs count) ~count f))

(* Two generators share a stream iff their next draws agree; copies probe
   that without advancing either. One draw is no proof of equality in
   general, but the root and every derived stream differ in their first
   word with overwhelming probability, which is what the regression guard
   needs. *)
let same_stream a b = a == b || Rng.bits64 (Rng.copy a) = Rng.bits64 (Rng.copy b)

(* ------------------------------------------------------------------ *)
(* Resident pool: parked workers for round-based actor loops           *)
(* ------------------------------------------------------------------ *)

(* [map] spawns fresh domains on every call, which is fine for a sweep
   that runs seconds per call but dominates the cost of a serving loop
   that fans out thousands of sub-millisecond rounds. A [resident] keeps
   the worker domains parked on a condition variable between rounds: the
   coordinator publishes (task, count) under the mutex, bumps a
   generation counter, and waits until every worker has drained the
   shared cursor and checked back in. The mutex hand-offs give the
   happens-before edges in both directions, so effects written by
   workers during a round are visible to the coordinator when [run]
   returns — the same guarantee [Domain.join] gives [map].

   Rounds are effects-only ([f : int -> unit]); results travel through
   caller-owned slots where index [i] is written only by the job for
   [i], so the deterministic-output contract is the caller's chunking
   discipline, not this scheduler's. Like [map], the work distribution
   (which worker runs which index) is unspecified; only effects keyed by
   index are meaningful. *)

type resident = {
  r_jobs : int; (* parked worker domains; 0 = everything runs inline *)
  mutable r_task : int -> unit;
  mutable r_count : int;
  r_cursor : int Atomic.t;
  r_mutex : Mutex.t;
  r_rouse : Condition.t; (* workers wait here for a generation bump *)
  r_settle : Condition.t; (* the coordinator waits here for check-ins *)
  mutable r_generation : int;
  mutable r_checked_in : int;
  mutable r_stop : bool;
  mutable r_error : exn option;
  mutable r_domains : unit Domain.t array;
  mutable r_rounds : int;
}

let resident_jobs r = max 1 r.r_jobs

let resident_rounds r = r.r_rounds

let resident_worker r () =
  Domain.DLS.set in_worker_key true;
  (* Same policy as [map]: the obs registries are not domain-safe, so
     the coordinator reports on the workers' behalf. *)
  Flag.suppress_in_domain true;
  let seen = ref 0 in
  let running = ref true in
  while !running do
    Mutex.lock r.r_mutex;
    while (not r.r_stop) && r.r_generation = !seen do
      Condition.wait r.r_rouse r.r_mutex
    done;
    if r.r_stop then begin
      running := false;
      Mutex.unlock r.r_mutex
    end
    else begin
      seen := r.r_generation;
      Mutex.unlock r.r_mutex;
      (try
         let chunk = max 1 (r.r_count / (r.r_jobs * 4)) in
         let pulling = ref true in
         while !pulling do
           let lo = Atomic.fetch_and_add r.r_cursor chunk in
           if lo >= r.r_count then pulling := false
           else
             for i = lo to min (lo + chunk) r.r_count - 1 do
               r.r_task i
             done
         done
       with e -> (
         Mutex.lock r.r_mutex;
         (match r.r_error with None -> r.r_error <- Some e | Some _ -> ());
         Mutex.unlock r.r_mutex));
      Mutex.lock r.r_mutex;
      r.r_checked_in <- r.r_checked_in + 1;
      Condition.broadcast r.r_settle;
      Mutex.unlock r.r_mutex
    end
  done

let create_resident ?jobs () =
  let jobs = match jobs with Some j -> j | None -> default_jobs () in
  if jobs < 1 then invalid_arg "Pool.create_resident: jobs must be >= 1";
  (* The sequential conditions [map] re-checks per call are captured
     once at creation: a resident's worker count is part of its
     identity (documented in pool.mli). *)
  let jobs = if sequential_forced () || Domain.DLS.get in_worker_key then 1 else jobs in
  let r =
    {
      r_jobs = (if jobs <= 1 then 0 else jobs);
      r_task = ignore;
      r_count = 0;
      r_cursor = Atomic.make 0;
      r_mutex = Mutex.create ();
      r_rouse = Condition.create ();
      r_settle = Condition.create ();
      r_generation = 0;
      r_checked_in = 0;
      r_stop = false;
      r_error = None;
      r_domains = [||];
      r_rounds = 0;
    }
  in
  if r.r_jobs > 0 then begin
    r.r_domains <- Array.init r.r_jobs (fun _ -> Domain.spawn (resident_worker r));
    if Flag.enabled () then Metrics.set_gauge "exec_resident_workers" (float_of_int r.r_jobs)
  end;
  r

let run_resident r ~count f =
  if count < 0 then invalid_arg "Pool.run_resident: count must be non-negative";
  if r.r_stop then invalid_arg "Pool.run_resident: pool already shut down";
  r.r_rounds <- r.r_rounds + 1;
  if r.r_jobs = 0 || count <= 1 then
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
    while r.r_checked_in < r.r_jobs do
      Condition.wait r.r_settle r.r_mutex
    done;
    r.r_task <- ignore;
    let err = r.r_error in
    r.r_error <- None;
    Mutex.unlock r.r_mutex;
    match err with Some e -> raise e | None -> ()
  end;
  if Flag.enabled () then Metrics.incr_by "exec_jobs_completed_total" count

let shutdown_resident r =
  if not r.r_stop then begin
    Mutex.lock r.r_mutex;
    r.r_stop <- true;
    Condition.broadcast r.r_rouse;
    Mutex.unlock r.r_mutex;
    Array.iter Domain.join r.r_domains;
    r.r_domains <- [||];
    if Flag.enabled () then begin
      Metrics.set_gauge "exec_resident_workers" 0.0;
      Metrics.incr_by "exec_resident_rounds_total" r.r_rounds
    end
  end

let with_resident ?jobs f =
  let r = create_resident ?jobs () in
  Fun.protect ~finally:(fun () -> shutdown_resident r) (fun () -> f r)

let map_seeded ?jobs ~seed ~count f =
  let rngs = Array.init count (fun index -> Seed.rng_for ~seed ~index) in
  Debug.check
    (fun () ->
      let root = Seed.root ~seed in
      not (Array.exists (fun rng -> same_stream rng root) rngs))
    "Pool.map_seeded: a job received the root generator (seed %d)" seed;
  map ?jobs ~count (fun i -> f ~index:i ~rng:rngs.(i))
