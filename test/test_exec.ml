(* The exec subsystem's contract: a sweep's merged output is a pure
   function of (seed, grid) — never of the worker count, the chunking or
   the FTR_EXEC_SEQ fallback. The qcheck property pins that down
   byte-for-byte (Marshal, so NaN payloads compare too); the rest covers
   the seed-derivation rules, pool error paths, the obs wiring and the
   checkpoint journal's crash tolerance. *)

module Pool = Ftr_exec.Pool
module Seed = Ftr_exec.Seed
module Sweep = Ftr_exec.Sweep
module Checkpoint = Ftr_exec.Checkpoint
module Rng = Ftr_prng.Rng
module Json = Ftr_obs.Json
module E = Ftr_core.Experiment

let bytes_equal a b = Marshal.to_string a [] = Marshal.to_string b []

(* ------------------------------------------------------------------ *)
(* Seed derivation                                                     *)
(* ------------------------------------------------------------------ *)

let seed_scheme () =
  (* Pure: the same (seed, index) always yields the same stream. *)
  let a = Seed.rng_for ~seed:5 ~index:3 and b = Seed.rng_for ~seed:5 ~index:3 in
  Alcotest.(check int64) "pure in (seed, index)" (Rng.bits64 a) (Rng.bits64 b);
  (* Distinct indices (and the root) all start differently. *)
  let first i = Rng.bits64 (Seed.rng_for ~seed:5 ~index:i) in
  let root_first = Rng.bits64 (Seed.root ~seed:5) in
  let seen = Hashtbl.create 64 in
  for i = 0 to 63 do
    let f = first i in
    Alcotest.(check bool)
      (Printf.sprintf "index %d differs from the root stream" i)
      true (f <> root_first);
    Alcotest.(check bool) (Printf.sprintf "index %d stream is fresh" i) false (Hashtbl.mem seen f);
    Hashtbl.add seen f ()
  done;
  (* Different seeds decorrelate the same index. *)
  Alcotest.(check bool) "seeds decorrelate" true
    (Rng.bits64 (Seed.rng_for ~seed:5 ~index:0) <> Rng.bits64 (Seed.rng_for ~seed:6 ~index:0));
  Alcotest.check_raises "negative index rejected"
    (Invalid_argument "Seed.rng_for: index must be non-negative") (fun () ->
      ignore (Seed.rng_for ~seed:5 ~index:(-1)))

(* The FTR_CHECK regression guard inside map_seeded must stay quiet on the
   sanctioned derivation (it exists to catch a future refactor handing a
   job the root generator). *)
let seeded_guard () =
  Ftr_debug.Debug.with_mode true @@ fun () ->
  let r = Pool.map_seeded ~jobs:2 ~seed:9 ~count:8 (fun ~index:_ ~rng -> Rng.bits64 rng) in
  Alcotest.(check int) "all jobs ran" 8 (Array.length r)

(* ------------------------------------------------------------------ *)
(* Pool                                                                *)
(* ------------------------------------------------------------------ *)

let pool_map () =
  Alcotest.(check (array int)) "empty" [||] (Pool.map ~count:0 (fun i -> i));
  Alcotest.(check (array int)) "index order under jobs=4"
    (Array.init 100 (fun i -> i * i))
    (Pool.map ~jobs:4 ~count:100 (fun i -> i * i));
  Alcotest.check_raises "negative count" (Invalid_argument "Pool.map: count must be non-negative")
    (fun () -> ignore (Pool.map ~count:(-1) (fun i -> i)));
  Alcotest.check_raises "zero jobs" (Invalid_argument "Pool.map: jobs must be >= 1") (fun () ->
      ignore (Pool.map ~jobs:0 ~count:4 (fun i -> i)))

(* [iter] runs every index exactly once, for its effects, at any worker
   count, and refuses bad arguments under its own name. *)
let pool_iter () =
  List.iter
    (fun jobs ->
      let hits = Array.make 100 0 in
      Pool.iter ~jobs ~count:100 (fun i -> hits.(i) <- hits.(i) + i + 1);
      Alcotest.(check (array int))
        (Printf.sprintf "each index once under jobs=%d" jobs)
        (Array.init 100 (fun i -> i + 1))
        hits)
    [ 1; 2; 4 ];
  Pool.iter ~count:0 (fun _ -> Alcotest.fail "a job of an empty round ran");
  Alcotest.check_raises "negative count" (Invalid_argument "Pool.iter: count must be non-negative")
    (fun () -> Pool.iter ~count:(-1) ignore);
  Alcotest.check_raises "zero jobs" (Invalid_argument "Pool.iter: jobs must be >= 1") (fun () ->
      Pool.iter ~jobs:0 ~count:4 ignore)

let pool_exception () =
  match Pool.map ~jobs:2 ~count:16 (fun i -> if i = 7 then failwith "boom" else i) with
  | _ -> Alcotest.fail "a job raised but map returned"
  | exception Stdlib.Failure m -> Alcotest.(check string) "job's own exception surfaces" "boom" m

let domain_id () = (Domain.self () :> int)

(* A job that itself maps must degrade to the sequential path instead of
   spawning a second generation of domains — and still merge correctly.
   That holds for the jobs the caller drains as worker 0 too. *)
let pool_nested () =
  let r =
    Pool.map ~jobs:2 ~count:4 (fun i ->
        let outer = domain_id () in
        let inner = Pool.map ~jobs:4 ~count:3 (fun j -> ((10 * i) + j, domain_id ())) in
        (Array.to_list (Array.map fst inner), Array.for_all (fun (_, d) -> d = outer) inner))
  in
  Alcotest.(check (array (list int)))
    "nested results intact"
    [| [ 0; 1; 2 ]; [ 10; 11; 12 ]; [ 20; 21; 22 ]; [ 30; 31; 32 ] |]
    (Array.map fst r);
  Alcotest.(check bool) "every inner job ran on its outer job's domain" true
    (Array.for_all snd r)

let pool_sequential_fallbacks () =
  Pool.with_sequential_forced true (fun () ->
      Alcotest.(check bool) "FTR_EXEC_SEQ forces the fallback" true (Pool.sequential_forced ());
      Alcotest.(check int) "default_jobs is 1 under the fallback" 1 (Pool.default_jobs ());
      let caller = domain_id () in
      Alcotest.(check bool) "an explicit ~jobs:4 map runs on the caller alone" true
        (Array.for_all (fun d -> d = caller) (Pool.map ~jobs:4 ~count:8 (fun _ -> domain_id ()))));
  Pool.with_sequential_forced false (fun () ->
      Alcotest.(check bool) "fallback released" false (Pool.sequential_forced ());
      (try Pool.with_sequential_forced true (fun () -> failwith "body raised")
       with Failure _ -> ());
      Alcotest.(check bool) "previous value restored after a raise" false
        (Pool.sequential_forced ()))

let pool_metrics () =
  Ftr_obs.Flag.with_mode true @@ fun () ->
  Ftr_obs.Metrics.reset Ftr_obs.Metrics.default;
  Ftr_obs.Span.reset ();
  (* Instrumented code gates on [Flag.enabled] (Metrics itself records
     unconditionally); worker-domain suppression flips that gate off. *)
  let inside = "exec_test_inside_job" in
  let instrumented i =
    if Ftr_obs.Flag.enabled () then Ftr_obs.Metrics.incr inside;
    i
  in
  ignore (Pool.map ~jobs:2 ~count:8 instrumented);
  Alcotest.(check int) "coordinator counts completed jobs" 8
    (Ftr_obs.Metrics.counter_value "exec_jobs_completed_total");
  (* Worker domains run with telemetry suppressed (the registries are not
     domain-safe), so job-side metrics vanish on the parallel path... *)
  Alcotest.(check int) "worker-side telemetry suppressed" 0
    (Ftr_obs.Metrics.counter_value inside);
  (* A resident round suppresses the caller too while it drains as worker
     0, and hands its telemetry back before merging. *)
  Pool.with_resident ~jobs:2 (fun r ->
      Pool.run_resident r ~count:8 (fun i -> ignore (instrumented i)));
  Alcotest.(check int) "resident round: job-side telemetry suppressed" 0
    (Ftr_obs.Metrics.counter_value inside);
  Alcotest.(check bool) "caller's telemetry restored after the round" true
    (Ftr_obs.Flag.enabled ());
  Alcotest.(check int) "resident round counted" 16
    (Ftr_obs.Metrics.counter_value "exec_jobs_completed_total");
  (match Ftr_obs.Span.find "exec.pool.run" with
  | Some s -> Alcotest.(check bool) "pool span timed" true (s.Ftr_obs.Span.count >= 1)
  | None -> Alcotest.fail "no exec.pool.run span recorded");
  (* ...and is recorded as usual on the sequential path. The determinism
     contract covers merged results, not telemetry. *)
  let pool_runs () =
    match Ftr_obs.Span.find "exec.pool.run" with Some s -> s.Ftr_obs.Span.count | None -> 0
  in
  let runs = pool_runs () in
  ignore (Pool.map ~jobs:1 ~count:4 instrumented);
  Alcotest.(check int) "sequential path records job-side telemetry" 4
    (Ftr_obs.Metrics.counter_value inside);
  Alcotest.(check int) "sequential map runs inline, not as a pool run" runs (pool_runs ());
  Alcotest.(check int) "sequential map counted" 20
    (Ftr_obs.Metrics.counter_value "exec_jobs_completed_total")

(* ------------------------------------------------------------------ *)
(* Resident crews                                                      *)
(* ------------------------------------------------------------------ *)

(* A jobs=2 crew is the caller plus one parked domain. Job 0 holds its
   worker until a second domain has entered job 1 (bounded at about 5 s),
   so the two indices run on two domains, and the caller must be one of
   them. *)
let resident_caller_drains () =
  let ran_on = Array.make 2 (-1) in
  let entered = Atomic.make 0 in
  Pool.with_resident ~jobs:2 (fun r ->
      Pool.run_resident r ~count:2 (fun i ->
          ran_on.(i) <- domain_id ();
          Atomic.incr entered;
          if i = 0 then begin
            let waits = ref 0 in
            while Atomic.get entered < 2 && !waits < 5000 do
              Unix.sleepf 0.001;
              incr waits
            done
          end));
  let caller = domain_id () in
  Alcotest.(check bool) "every index ran" true (Array.for_all (fun d -> d >= 0) ran_on);
  Alcotest.(check bool) "the caller drained as worker 0" true
    (Array.exists (fun d -> d = caller) ran_on)

let resident_error_then_reuse () =
  Pool.with_resident ~jobs:2 (fun r ->
      let running = Atomic.make 0 in
      (match
         Pool.run_resident r ~count:16 (fun i ->
             Atomic.incr running;
             Fun.protect ~finally:(fun () -> Atomic.decr running) (fun () ->
                 if i = 3 then failwith "boom"))
       with
      | () -> Alcotest.fail "a job raised but the round returned"
      | exception Failure m -> Alcotest.(check string) "job's own exception surfaces" "boom" m);
      Alcotest.(check int) "the round settled before re-raising" 0 (Atomic.get running);
      let hits = Array.make 16 0 in
      Pool.run_resident r ~count:16 (fun i -> hits.(i) <- hits.(i) + 1);
      Alcotest.(check (array int)) "the next round runs every index once" (Array.make 16 1) hits)

let resident_shutdown () =
  let r = Pool.with_resident ~jobs:2 Fun.id in
  Alcotest.check_raises "round after shutdown"
    (Invalid_argument "Pool.run_resident: pool already shut down") (fun () ->
      Pool.run_resident r ~count:4 ignore)

let resident_degrades () =
  Alcotest.(check int) "jobs:4 under FTR_EXEC_SEQ=1" 1
    (Pool.with_sequential_forced true (fun () -> Pool.with_resident ~jobs:4 Pool.resident_jobs));
  Alcotest.(check (array int)) "jobs:4 inside a map job" [| 1; 1 |]
    (Pool.map ~jobs:2 ~count:2 (fun _ -> Pool.with_resident ~jobs:4 Pool.resident_jobs));
  Alcotest.(check int) "jobs:2 otherwise" 2
    (Pool.with_sequential_forced false (fun () -> Pool.with_resident ~jobs:2 Pool.resident_jobs))

(* A crew reports its rounds to exec_resident_rounds_total at shutdown. *)
let resident_rounds () =
  Ftr_obs.Flag.with_mode true @@ fun () ->
  let count jobs =
    Ftr_obs.Metrics.reset Ftr_obs.Metrics.default;
    Pool.with_resident ~jobs (fun r ->
        Pool.run_resident r ~count:3 ignore;
        Pool.run_resident r ~count:1 ignore;
        Pool.run_resident r ~count:0 ignore);
    Ftr_obs.Metrics.counter_value "exec_resident_rounds_total"
  in
  Alcotest.(check int) "inline crew" 3 (count 1);
  Alcotest.(check int) "jobs:2 crew, short rounds inline" 3 (count 2)

(* ------------------------------------------------------------------ *)
(* Determinism (the headline property)                                 *)
(* ------------------------------------------------------------------ *)

let qcheck_determinism =
  QCheck.Test.make ~count:30
    ~name:"merged results byte-identical for jobs in {1,2,4} and FTR_EXEC_SEQ=1"
    QCheck.(pair small_int (int_range 0 40))
    (fun (seed, count) ->
      let job ~index ~rng =
        Printf.sprintf "%d:%Lx:%Lx" index (Rng.bits64 rng) (Rng.bits64 rng)
      in
      let run ?jobs () = Pool.map_seeded ?jobs ~seed ~count job in
      let reference = run ~jobs:1 () in
      bytes_equal reference (run ~jobs:2 ())
      && bytes_equal reference (run ~jobs:4 ())
      && Pool.with_sequential_forced true (fun () -> bytes_equal reference (run ())))

(* ------------------------------------------------------------------ *)
(* Sweep grids                                                         *)
(* ------------------------------------------------------------------ *)

let grids () =
  let g3 = Sweep.grid3 [ 1; 2 ] [ 3; 4 ] [ 5; 6; 7 ] in
  Alcotest.(check int) "grid3 size" 12 (List.length g3);
  Alcotest.(check bool) "grid3 first/last" true
    (List.hd g3 = (1, 3, 5) && List.nth g3 11 = (2, 4, 7));
  Alcotest.(check int) "grid4 size" 12
    (List.length (Sweep.grid4 [ 1; 2 ] [ 3 ] [ 4; 5 ] [ 6; 7; 8 ]));
  let s = Sweep.create ~run:(fun ~index ~rng:_ p -> (index, p)) [ "x"; "y"; "z" ] in
  Alcotest.(check int) "sweep size" 3 (Sweep.size s);
  Alcotest.(check (array (pair int string)))
    "run hands each job its own index"
    [| (0, "x"); (1, "y"); (2, "z") |]
    (Sweep.run ~jobs:2 ~seed:4 s)

(* ------------------------------------------------------------------ *)
(* Checkpoint                                                          *)
(* ------------------------------------------------------------------ *)

(* Exact float codec for the journal: IEEE bits in hex, because
   Json.Float's decimal rendering is lossy and resume must reproduce the
   uninterrupted run byte for byte. *)
let encode (i, f) =
  Json.Obj [ ("i", Json.Int i); ("f", Json.String (Printf.sprintf "%Lx" (Int64.bits_of_float f))) ]

let decode j =
  match (Json.member "i" j, Json.member "f" j) with
  | Some (Json.Int i), Some (Json.String s) -> (
      match Int64.of_string_opt ("0x" ^ s) with
      | Some b -> Some (i, Int64.float_of_bits b)
      | None -> None)
  | _ -> None

let float_sweep = Sweep.create ~run:(fun ~index ~rng _p -> (index, Rng.float rng)) (List.init 9 Fun.id)

let checkpoint_roundtrip () =
  (* A nested path exercises the shared Csv.mkdir_p on the journal dir. *)
  let root = Filename.temp_file "ftr_exec_ck" "" in
  Sys.remove root;
  let path = Filename.concat (Filename.concat root "nested") "journal.jsonl" in
  let seed = 11 in
  let plain = Sweep.run ~jobs:1 ~seed float_sweep in
  let first = Sweep.run_checkpointed ~jobs:2 ~wave:3 ~path ~seed ~encode ~decode float_sweep in
  Alcotest.(check bool) "checkpointed run = plain run" true (bytes_equal plain first);
  (* Kill simulation: drop the last full record and leave a torn line. *)
  let lines = In_channel.with_open_text path In_channel.input_lines in
  Alcotest.(check int) "header + one record per job" 10 (List.length lines);
  Out_channel.with_open_text path (fun oc ->
      List.iteri
        (fun i l ->
          if i < List.length lines - 1 then begin
            output_string oc l;
            output_char oc '\n'
          end)
        lines;
      output_string oc "{\"job\":8,\"res");
  let resumed = Sweep.run_checkpointed ~path ~seed ~encode ~decode float_sweep in
  Alcotest.(check bool) "resume from truncated journal = plain run" true
    (bytes_equal plain resumed);
  Sys.remove path

let checkpoint_header_mismatch () =
  let path = Filename.temp_file "ftr_exec_hdr" ".jsonl" in
  let t = Checkpoint.open_ ~fresh:true ~path ~seed:1 ~count:4 () in
  Checkpoint.append t ~index:0 (Json.Int 42);
  Checkpoint.close t;
  (try
     ignore (Checkpoint.open_ ~path ~seed:2 ~count:4 ());
     Alcotest.fail "a journal for another seed was accepted"
   with Checkpoint.Bad_journal _ -> ());
  (try
     ignore (Checkpoint.open_ ~path ~seed:1 ~count:5 ());
     Alcotest.fail "a journal for another grid size was accepted"
   with Checkpoint.Bad_journal _ -> ());
  (* fresh:true is the sanctioned way to discard a stale journal. *)
  let t2 = Checkpoint.open_ ~fresh:true ~path ~seed:2 ~count:4 () in
  Alcotest.(check int) "fresh journal starts empty" 0 (List.length (Checkpoint.completed t2));
  Checkpoint.close t2;
  Sys.remove path

let checkpoint_tolerates_garbage () =
  let path = Filename.temp_file "ftr_exec_garbage" ".jsonl" in
  let t = Checkpoint.open_ ~fresh:true ~path ~seed:7 ~count:3 () in
  Checkpoint.append t ~index:0 (Json.Int 10);
  Checkpoint.close t;
  let oc = open_out_gen [ Open_append; Open_wronly ] 0o644 path in
  (* A torn append, an out-of-range index, a duplicate of job 0. *)
  output_string oc "{\"job\":1,\"result\"\n";
  output_string oc "{\"job\":9,\"result\":1}\n";
  output_string oc "{\"job\":0,\"result\":99}\n";
  close_out oc;
  let t2 = Checkpoint.open_ ~path ~seed:7 ~count:3 () in
  (match Checkpoint.completed t2 with
  | [ (0, Json.Int 10) ] -> ()
  | cs -> Alcotest.failf "expected only job 0's first record, got %d record(s)" (List.length cs));
  Checkpoint.close t2;
  Sys.remove path

(* The busy-time clock is injectable (Span.set_clock); with a constant
   clock every worker's busy span collapses to exactly 0.0, which only
   happens if the pool reads time through the seam and not the monotonic
   clock directly. The injected function must be domain-safe — here it is
   pure. *)
let pool_clock_injection () =
  Ftr_obs.Flag.with_mode true @@ fun () ->
  Ftr_obs.Metrics.reset Ftr_obs.Metrics.default;
  Ftr_obs.Span.set_clock (fun () -> 42);
  Fun.protect ~finally:Ftr_obs.Span.reset @@ fun () ->
  ignore (Pool.map ~jobs:2 ~count:8 (fun i -> i * i));
  let busy =
    List.filter_map
      (fun it ->
        if String.equal it.Ftr_obs.Metrics.item_name "exec_worker_busy_seconds" then
          match it.Ftr_obs.Metrics.item_view with
          | Ftr_obs.Metrics.Histogram_view v -> Some v
          | _ -> None
        else None)
      (Ftr_obs.Metrics.snapshot ())
  in
  Alcotest.(check int) "one busy histogram per worker" 2 (List.length busy);
  List.iter
    (fun v ->
      Alcotest.(check int) "one observation" 1 v.Ftr_obs.Metrics.h_count;
      Alcotest.(check (float 0.0)) "injected clock makes busy exactly zero" 0.0
        v.Ftr_obs.Metrics.h_sum)
    busy

(* ------------------------------------------------------------------ *)
(* Experiment drivers                                                  *)
(* ------------------------------------------------------------------ *)

(* The figure drivers and the Table 1 battery are the functions every
   user, golden and CSV runs: each must produce the same bytes for any
   jobs count and under FTR_EXEC_SEQ=1. *)
let experiment_parallel () =
  let invariant name run =
    let reference = run 1 in
    List.iter
      (fun jobs ->
        Alcotest.(check bool) (Printf.sprintf "%s jobs=%d" name jobs) true
          (bytes_equal reference (run jobs)))
      [ 2; 4 ];
    Alcotest.(check bool) (name ^ " FTR_EXEC_SEQ=1") true
      (Pool.with_sequential_forced true (fun () -> bytes_equal reference (run 4)))
  in
  invariant "figure5" (fun jobs -> E.figure5 ~jobs ~networks:3 ~n:256 ~links:4 ~seed:3 ());
  invariant "figure6" (fun jobs ->
      E.figure6 ~jobs ~n:256 ~networks:2 ~messages:40 ~fractions:[ 0.0; 0.4 ] ~seed:5 ());
  invariant "figure7" (fun jobs ->
      E.figure7 ~jobs ~n:256 ~networks:2 ~messages:40 ~probs:[ 0.0; 0.5 ] ~seed:6 ());
  invariant "table1" (fun jobs ->
      E.table1 ~jobs ~n:256 ~networks:1 ~messages:30 ~trials:20 ~seed:2 ())

let () =
  let quick name f = Alcotest.test_case name `Quick f in
  Alcotest.run "exec"
    [
      ( "seed",
        [ quick "derivation scheme" seed_scheme; quick "FTR_CHECK root guard stays quiet" seeded_guard ] );
      ( "pool",
        [
          quick "map basics and index order" pool_map;
          quick "iter runs each index once" pool_iter;
          quick "exception propagation" pool_exception;
          quick "nested map degrades to sequential" pool_nested;
          quick "FTR_EXEC_SEQ fallback" pool_sequential_fallbacks;
          quick "coordinator metrics, worker suppression" pool_metrics;
          quick "busy clock is injectable" pool_clock_injection;
        ] );
      ( "resident",
        [
          quick "the caller drains as worker 0" resident_caller_drains;
          quick "a raising round settles, the crew runs on" resident_error_then_reuse;
          quick "rounds after shutdown refused" resident_shutdown;
          quick "sequential and nested crews degrade" resident_degrades;
          quick "inline rounds counted" resident_rounds;
        ] );
      ("determinism", [ QCheck_alcotest.to_alcotest qcheck_determinism ]);
      ("sweep", [ quick "grids are row-major" grids ]);
      ( "checkpoint",
        [
          quick "resume round-trip through a kill" checkpoint_roundtrip;
          quick "header mismatch refused" checkpoint_header_mismatch;
          quick "torn and bogus records skipped" checkpoint_tolerates_garbage;
        ] );
      ("experiment", [ quick "parallel drivers are jobs-invariant" experiment_parallel ]);
    ]
