(* ftr-lint: disable-file T2 -- benchmark wall-clock timing is the measurement itself *)

(* Benchmark harness: times the hot paths — the router, the int32 CSR
   core at scale, the flight recorder, the multicore executor on the
   experiment drivers, the message-passing service, the lint analyzer —
   and finishes with Bechamel micro-benchmarks. Each timed section writes
   its BENCH_*.json. The paper's figures and tables are `p2psim paper`.

   Set FTR_BENCH_FULL=1 for larger sizes. *)

module E = Ftr_core.Experiment
module Network = Ftr_core.Network
module Route = Ftr_core.Route
module Heuristic = Ftr_core.Heuristic
module Rng = Ftr_prng.Rng

let full = match Sys.getenv_opt "FTR_BENCH_FULL" with Some ("1" | "true") -> true | _ -> false

(* FTR_BENCH_SMOKE=1 shrinks the timed sections to seconds — the @perf
   alias uses it to keep the route microbenchmark inside the edit loop. *)
let smoke = match Sys.getenv_opt "FTR_BENCH_SMOKE" with Some ("1" | "true") -> true | _ -> false

(* FTR_BENCH_ONLY=<name>[,<name>...] runs only the named sections
   ("route", or the full "bench.route" span name). Unset runs them all. *)
let only_sections =
  match Sys.getenv_opt "FTR_BENCH_ONLY" with
  | None | Some "" -> None
  | Some s -> Some (String.split_on_char ',' s)

let seed = 0xF7A

(* --jobs N: worker domains for the EXEC section (default: the host's
   recommended domain count). The executor's contract makes this a pure
   wall-clock knob — results never move. *)
let jobs_flag =
  let rec scan i =
    if i + 1 >= Array.length Sys.argv then None
    else if String.equal Sys.argv.(i) "--jobs" then int_of_string_opt Sys.argv.(i + 1)
    else scan (i + 1)
  in
  scan 1

let section title =
  Printf.printf "\n=============================================================\n";
  Printf.printf "%s\n" title;
  Printf.printf "=============================================================\n%!"

let subsection title = Printf.printf "\n--- %s ---\n%!" title

(* A uniform draw from [rng] over the nodes [0, n) that pass [alive]. *)
let rec draw_alive rng ~n alive =
  let v = Rng.int rng n in
  if alive v then v else draw_alive rng ~n alive

(* [f ()] and the wall-clock seconds it took. *)
let timed f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

(* Every machine-readable file the harness writes goes through here.
   [asserts] are the section's identity contracts (outputs identical
   across jobs): the file is written
   first, so the evidence survives, then any false one fails the run. *)
let write_report ?(asserts = []) path json =
  Out_channel.with_open_text path (fun oc ->
      output_string oc (Ftr_obs.Json.to_string json);
      output_char oc '\n');
  Printf.printf "[bench] wrote %s\n%!" path;
  match List.filter (fun (_, holds) -> not holds) asserts with
  | [] -> ()
  | broken ->
      List.iter (fun (what, _) -> Printf.eprintf "[bench] %s: %s is false\n%!" path what) broken;
      exit 1

(* ------------------------------------------------------------------ *)
(* Exec subsystem: multicore speedup on the experiment drivers          *)
(* ------------------------------------------------------------------ *)

(* Each driver runs twice — jobs=1, then --jobs N — on identical
   arguments; the executor guarantees identical output (asserted here
   with a structural comparison, and byte-for-byte in the test suite),
   so the only difference is the wall clock. On a one-domain host N is
   1 too, and the report's jobs and host_recommended_domains say so. The
   numbers land in BENCH_exec.json for machines to read. *)
let run_exec () =
  let jobs = match jobs_flag with Some j -> j | None -> Ftr_exec.Pool.default_jobs () in
  section
    (Printf.sprintf
       "EXEC — deterministic multicore executor (--jobs %d; host recommends %d domains)\n\
        output is jobs-invariant by contract; parallelism only moves the wall clock" jobs
       (Domain.recommended_domain_count ()));
  let rows = ref [] in
  let bench name seq par =
    let r1, t1 = timed seq in
    let rj, tj = timed par in
    let speedup = t1 /. tj in
    Printf.printf "%28s: jobs=1 %7.2f s, jobs=%d %7.2f s, speedup %5.2fx%s\n%!" name t1 jobs tj
      speedup
      (if r1 = rj then "" else "  [OUTPUT MISMATCH]");
    rows := (name, t1, tj, r1 = rj) :: !rows
  in
  let networks = if full then 8 else 4 in
  let messages = if full then 300 else 150 in
  let n = if full then 1 lsl 13 else 1 lsl 12 in
  let table1 jobs () = E.table1 ~jobs ~n ~networks:2 ~messages:100 ~trials:100 ~seed () in
  let figure5 jobs () = E.figure5 ~jobs ~networks ~n ~links:12 ~seed () in
  let figure6 jobs () =
    E.figure6 ~jobs ~n ~networks:2 ~messages ~fractions:[ 0.0; 0.3; 0.6 ] ~seed ()
  in
  bench "table1 grid (9 sections)" (table1 1) (table1 jobs);
  bench "figure5 networks" (figure5 1) (figure5 jobs);
  bench "figure6 (fractions x nets)" (figure6 1) (figure6 jobs);
  write_report "BENCH_exec.json"
    ~asserts:(List.rev_map (fun (name, _, _, same) -> (name ^ " output_identical", same)) !rows)
    Ftr_obs.Json.(
      Obj
        [
          ("jobs", Int jobs);
          ("host_recommended_domains", Int (Domain.recommended_domain_count ()));
          ("full_scale", Bool full);
          ( "sections",
            List
              (List.rev_map
                 (fun (name, t1, tj, same) ->
                   Obj
                     [
                       ("name", String name);
                       ("jobs1_seconds", Float t1);
                       ("jobsN_seconds", Float tj);
                       ("speedup", Float (t1 /. tj));
                       ("output_identical", Bool same);
                     ])
                 !rows) );
        ])

(* ------------------------------------------------------------------ *)
(* Service: lookups/s through the actor scheduler                      *)
(* ------------------------------------------------------------------ *)

(* The message-passing service under a churny workload, jobs=1 against
   the recommended worker count on identical arguments (both 1 on a
   one-domain host). The scheduler guarantees a byte-identical transcript
   (asserted structurally here, and byte-for-byte by @serve), so the
   only difference is the wall clock; the numbers land in
   BENCH_serve.json for machines to read. *)
let run_serve () =
  let module D = Ftr_svc.Driver in
  let host = Domain.recommended_domain_count () in
  let jobs = match jobs_flag with Some j -> j | None -> Ftr_exec.Pool.default_jobs () in
  section
    (Printf.sprintf
       "SERVE — the overlay as a message-passing service (--jobs %d; host recommends %d)\n\
        the transcript is jobs-invariant by contract; parallelism only moves the wall clock"
       jobs host);
  let cfg =
    {
      D.default_config with
      D.line_size = (if full then 1 lsl 14 else 4096);
      initial = (if full then 1024 else 256);
      links = 8;
      seed;
      ticks = (if smoke then 32 else 128);
      rate = (if full then 64 else 32);
      join_rate = 0.5;
      crash_rate = 0.5;
      leave_rate = 0.25;
      stabilize = 2;
    }
  in
  let words0 = Gc.minor_words () in
  let r1 = D.run { cfg with D.jobs = Some 1 } in
  let words_per_lookup =
    (Gc.minor_words () -. words0) /. float_of_int (max 1 r1.D.res_report.D.rp_issued)
  in
  let rj = D.run { cfg with D.jobs = Some jobs } in
  let same =
    D.report_lines ~wall:false r1.D.res_report = D.report_lines ~wall:false rj.D.res_report
  in
  let rate r = r.D.res_report.D.rp_requests_per_second in
  Printf.printf
    "%28s: jobs=1 %8.0f lookups/s, jobs=%d %8.0f lookups/s, speedup %5.2fx%s\n%!"
    "serve (churny workload)" (rate r1) jobs (rate rj)
    (rate rj /. rate r1)
    (if same then "" else "  [OUTPUT MISMATCH]");
  Printf.printf "%28s: delivered %d/%d, hops p50 %d p99 %d, repairs %d, bounces %d\n%!"
    "outcomes" r1.D.res_report.D.rp_delivered r1.D.res_report.D.rp_issued
    r1.D.res_report.D.rp_p50_hops r1.D.res_report.D.rp_p99_hops r1.D.res_report.D.rp_repairs
    r1.D.res_report.D.rp_bounces;
  Printf.printf "%28s: %.0f minor words per lookup (jobs=1, set-up included)\n%!" "allocation"
    words_per_lookup;
  write_report "BENCH_serve.json" ~asserts:[ ("output_identical", same) ]
    Ftr_obs.Json.(
      Obj
        [
          ("jobs", Int jobs);
          ("host_recommended_domains", Int host);
          ("full_scale", Bool full);
          ("issued", Int r1.D.res_report.D.rp_issued);
          ("delivered", Int r1.D.res_report.D.rp_delivered);
          ("p50_hops", Int r1.D.res_report.D.rp_p50_hops);
          ("p99_hops", Int r1.D.res_report.D.rp_p99_hops);
          ("jobs1_lookups_per_second", Float (rate r1));
          ("jobsN_lookups_per_second", Float (rate rj));
          ("jobs1_minor_words_per_lookup", Float words_per_lookup);
          ("speedup", Float (rate rj /. rate r1));
          ("output_identical", Bool same);
        ])

(* ------------------------------------------------------------------ *)
(* Lint: analyzer throughput, typed stage and flow stage               *)
(* ------------------------------------------------------------------ *)

(* Both stages load the .cmt corpus on every run (the typed stage also
   test/'s, which T6 reads for its messages) and have no cache of their
   own: dune reruns a lint rule only when a .cmt changed. The typed
   stage (T1-T6) builds the call graph and walks every body; the flow
   stage (D1-D4) builds per-function CFGs and runs the dataflow engine
   to fixpoint. Each is timed once over the real tree, and the section
   asserts the flow stage's jobs-invariance contract (the rendered
   finding stream at --jobs 1 and --jobs 4 must agree byte for byte).
   The numbers land in BENCH_lint.json for machines to read. *)
let run_lint () =
  let module Flow_driver = Ftr_lint.Flow_driver in
  let root =
    let rec up d =
      if Sys.file_exists (Filename.concat d "dune-project") then Some d
      else
        let parent = Filename.dirname d in
        if String.equal parent d then None else up parent
    in
    up (Sys.getcwd ())
  in
  let dirs = [ "lib"; "bin"; "bench"; "examples" ] in
  match root with
  | None ->
      section "LINT — skipped: no dune-project above the working directory";
      write_report "BENCH_lint.json" Ftr_obs.Json.(Obj [ ("skipped", Bool true) ])
  | Some root ->
      section
        "LINT — typed stage (T1-T6) and flow stage (D1-D4)\n\
         the finding stream is jobs-invariant by contract";
      let (typed_state, typed), t_typed =
        timed (fun () -> Ftr_lint.Typed_driver.analyze ~root ~dirs ())
      in
      Printf.printf "%28s: %d units, %d findings, %7.2f s\n%!" "typed stage"
        (Array.length typed_state.Ftr_lint.Typed_rules.units)
        (List.length typed) t_typed;
      let (flow, units), t_flow = timed (fun () -> Flow_driver.analyze ~root ~dirs ()) in
      let render fs =
        String.concat "\n" (List.map (fun (f, _) -> Ftr_lint.Finding.to_string f) fs)
      in
      let j1, _ = Flow_driver.analyze ~jobs:1 ~root ~dirs () in
      let j4, _ = Flow_driver.analyze ~jobs:4 ~root ~dirs () in
      let jobs_identical = String.equal (render j1) (render j4) in
      Printf.printf "%28s: %d units, %d findings, %7.2f s\n%!" "flow stage" units
        (List.length flow) t_flow;
      Printf.printf "%28s: --jobs 1 vs --jobs 4 streams %s\n%!" "jobs invariance"
        (if jobs_identical then "identical" else "DIFFER");
      write_report "BENCH_lint.json"
        ~asserts:[ ("jobs_identical", jobs_identical) ]
        Ftr_obs.Json.(
          Obj
            [
              ("units", Int units);
              ("typed_findings", Int (List.length typed));
              ("typed_cold_seconds", Float t_typed);
              ("findings", Int (List.length flow));
              ("cold_seconds", Float t_flow);
              ("jobs_identical", Bool jobs_identical);
            ])

(* ------------------------------------------------------------------ *)
(* Route throughput: the flat-CSR router                               *)
(* ------------------------------------------------------------------ *)

(* Hops/second of the production router on two streams over one
   network: any pair with no failures (Terminate), and live pairs under
   30% node failures (Backtrack, 5-node history). Telemetry is off so
   the number is the router's, not the obs layer's (the tracing section
   measures that). Each stream is timed over five passes of the same
   pairs; the report keeps the median pass, its quartiles beside it, and
   asserts that every pass hopped the same total. The outcomes of these
   streams are pinned as digests in test/test_csr.ml, recorded from the
   pre-refactor router. *)
let run_route_throughput () =
  let n = if full then 1 lsl 14 else 1 lsl 13 in
  let links = 14 in
  let messages = if smoke then 3_000 else if full then 60_000 else 30_000 in
  let passes = 5 in
  section
    (Printf.sprintf
       "ROUTE THROUGHPUT — flat-CSR router\n(n=%d, links=%d, %d messages per timing, %d timed passes)"
       n links messages passes);
  Ftr_obs.Flag.with_mode false @@ fun () ->
  let rng = Rng.of_int seed in
  let net = Network.build_ideal ~n ~links (Rng.split rng) in
  let mask = Ftr_core.Failure.random_node_fraction (Rng.split rng) ~n ~fraction:0.3 in
  let failures = Ftr_core.Failure.of_node_mask mask in
  let alive = Ftr_graph.Bitset.get mask in
  let scratch = Route.scratch net in
  let any r = (Rng.int r n, Rng.int r n) in
  let live_pick r = (draw_alive r ~n alive, draw_alive r ~n alive) in
  let run name ~failures ~strategy ~pick =
    subsection name;
    let route_pairs count =
      let pair_rng = Rng.of_int (seed + 78) in
      let hops = ref 0 in
      for _ = 1 to count do
        let src, dst = pick pair_rng in
        hops := !hops + Route.hops (Route.route ~failures ~strategy ~scratch net ~src ~dst)
      done;
      !hops
    in
    ignore (route_pairs (min 2_000 messages));
    (* One pass swings by tens of percent on a shared host: report the
       median pass and its quartiles. Every pass routes the same pairs. *)
    let runs = List.init passes (fun _ -> timed (fun () -> route_pairs messages)) in
    let rates =
      Array.of_list (List.map (fun (hops, dt) -> float_of_int hops /. dt) runs)
    in
    let q = Ftr_stats.Quantile.compute rates in
    Printf.printf "flat CSR router:  %12.0f hops/s  (median of %d passes; q1 %.0f, q3 %.0f)\n%!"
      (q 0.5) passes (q 0.25) (q 0.75);
    let same_hops = List.for_all (fun (hops, _) -> hops = fst (List.hd runs)) runs in
    ( Ftr_obs.Json.(
        Obj
          [
            ("name", String name);
            ("csr_hops_per_second", Float (q 0.5));
            ("csr_hops_per_second_q1", Float (q 0.25));
            ("csr_hops_per_second_q3", Float (q 0.75));
          ]),
      same_hops )
  in
  let healthy, healthy_same =
    run "healthy_terminate" ~failures:Ftr_core.Failure.none ~strategy:Route.Terminate ~pick:any
  in
  let faulty, faulty_same =
    run "fail30_backtrack5" ~failures ~strategy:(Route.Backtrack { history = 5 }) ~pick:live_pick
  in
  write_report "BENCH_route.json"
    ~asserts:
      [
        ("healthy_terminate passes agree on hops", healthy_same);
        ("fail30_backtrack5 passes agree on hops", faulty_same);
      ]
    Ftr_obs.Json.(
      Obj
        [
          ("n", Int n);
          ("links", Int links);
          ("messages", Int messages);
          ("passes", Int passes);
          ("full_scale", Bool full);
          ("smoke", Bool smoke);
          ("sections", List [ healthy; faulty ]);
        ])

(* ------------------------------------------------------------------ *)
(* Scale: compact CSR footprint, streaming build, batch routing        *)
(* ------------------------------------------------------------------ *)

(* The gate for the int32/Bigarray core: per network size, construction
   time at the default job count and at jobs=1 (the two builds must agree
   byte for byte, and so must their generators afterwards), bytes/node
   against the 8-byte int-array baseline the refactor replaced, batch
   route throughput on the exec pool, jobs-invariance of the merged
   outcome vector (--jobs 1/2/4 and FTR_EXEC_SEQ=1 must agree byte for
   byte), the bytes of a fresh [Route.scratch] (asserted equal at every
   n), and snapshot save + mmap load round-trip timing. One JSON row per
   size lands in BENCH_scale.json (docs/MEMORY_LAYOUT.md). *)
let run_scale () =
  let module Route_batch = Ftr_core.Route_batch in
  let module Snapshot = Ftr_core.Snapshot in
  let module Csr = Ftr_graph.Adjacency.Csr in
  let sizes =
    if smoke then [ 1 lsl 14 ]
    else if full then [ 1 lsl 16; 1 lsl 18; 1 lsl 20; 1 lsl 22 ]
    else [ 1 lsl 16; 1 lsl 18; 1 lsl 20 ]
  in
  let links = 8 in
  let messages = if smoke then 4_000 else 20_000 in
  section
    (Printf.sprintf
       "SCALE — int32 CSR core: streaming build, footprint, batch routing\n\
        (links=%d, %d messages per size; sizes up to n=%d)" links messages
       (List.fold_left max 0 sizes));
  Ftr_obs.Flag.with_mode false @@ fun () ->
  (* The router's working state is sized to one route, not to the
     network: a fresh scratch is as big at every n as on two nodes. *)
  let scratch_bytes net =
    Obj.reachable_words (Obj.repr (Route.scratch net)) * (Sys.word_size / 8)
  in
  let scratch_bytes_2 = scratch_bytes (Network.build_ideal ~n:2 ~links:0 (Rng.of_int seed)) in
  let rows =
    List.map
      (fun n ->
        subsection (Printf.sprintf "n = %d" n);
        let rng = Rng.of_int (seed + n) in
        (* The build at the default job count, then from a copy of its
           generator on one domain: the chunked fill must give the same
           CSR and leave the generator at the same place. *)
        let build_rng = Rng.split rng in
        let build_rng1 = Rng.copy build_rng in
        let net, build_dt = timed (fun () -> Network.build_ideal ~n ~links build_rng) in
        let build_identical, build_dt1 =
          Ftr_exec.Pool.with_sequential_forced true (fun () ->
              let net1, dt = timed (fun () -> Network.build_ideal ~n ~links build_rng1) in
              (Network.equal net net1 && Rng.bits64 build_rng = Rng.bits64 build_rng1, dt))
        in
        let edges = Csr.edge_count (Network.csr net) in
        (* Footprint accounting: the vectors the network holds — an ideal
           network is full, so offsets (n+1) and targets (E) but no positions
           — at 4 bytes/word, against the pre-refactor representation:
           positions, offsets and targets as 8-byte OCaml ints. *)
        if Option.is_some (Network.positions net) then
          failwith "scale: a full network holds a positions vector";
        let bytes_int32 = 4 * (n + 1 + edges) and bytes_int_array = 8 * (n + (n + 1) + edges) in
        let per_node b = float_of_int b /. float_of_int n in
        let ratio = per_node bytes_int32 /. per_node bytes_int_array in
        Printf.printf "build: %.3f s (%.0f nodes/s), %d edges; jobs=1 %.3f s, identical: %b\n"
          build_dt (float_of_int n /. build_dt) edges build_dt1 build_identical;
        Printf.printf "footprint: %.1f bytes/node (int-array baseline %.1f, ratio %.2f)\n"
          (per_node bytes_int32) (per_node bytes_int_array) ratio;
        let route_scratch_bytes = scratch_bytes net in
        Printf.printf "route scratch: %d bytes (%d on a 2-node network)\n" route_scratch_bytes
          scratch_bytes_2;
        (* Batch routing: healthy Terminate for throughput; the identity
           check below re-routes the same pairs under failures with the
           seeded Random_reroute strategy, the case where per-route rng
           derivation could diverge across schedules. *)
        let pair_rng = Rng.of_int (seed + 79) in
        let pairs =
          Array.init messages (fun _ -> (Rng.int pair_rng n, Rng.int pair_rng n))
        in
        let hops_per_second (outcomes, dt) =
          float_of_int (Array.fold_left (fun acc o -> acc + Route.hops o) 0 outcomes) /. dt
        in
        let batch1 = timed (fun () -> Route_batch.run ~jobs:1 net ~pairs) in
        let jobs = Ftr_exec.Pool.default_jobs () in
        let hps1 = hops_per_second batch1
        and hps = hops_per_second (timed (fun () -> Route_batch.run ~jobs net ~pairs)) in
        (* The same pairs one Route.route call at a time: the per-call
           router, whose outcomes the lockstep batch must reproduce. *)
        let per_call =
          timed (fun () -> Array.map (fun (src, dst) -> Route.route net ~src ~dst) pairs)
        in
        let route_hps = hops_per_second per_call in
        let lockstep_identical = fst batch1 = fst per_call in
        Printf.printf "batch route: %12.0f hops/s (jobs=1)  %12.0f hops/s (jobs=%d)\n" hps1
          hps jobs;
        Printf.printf "per-call route: %12.0f hops/s; lockstep batch outcomes identical: %b\n"
          route_hps lockstep_identical;
        let mask =
          Ftr_core.Failure.random_node_fraction (Rng.split rng) ~n ~fraction:0.3
        in
        let failures = Ftr_core.Failure.of_node_mask mask in
        let alive = Ftr_graph.Bitset.get mask in
        let live_rng = Rng.of_int (seed + 81) in
        let live () = draw_alive live_rng ~n alive in
        let live_pairs = Array.init messages (fun _ -> (live (), live ())) in
        let strategy = Route.Random_reroute { attempts = 3 } in
        let reroute ~jobs =
          Route_batch.run ~jobs ~failures ~strategy ~seed:(seed + 80) net
            ~pairs:live_pairs
        in
        let reference = reroute ~jobs:1 in
        let identical =
          List.for_all (fun j -> reroute ~jobs:j = reference) [ 2; 4 ]
          (* Same grid forced through the sequential fallback. *)
          && Ftr_exec.Pool.with_sequential_forced true (fun () -> reroute ~jobs:4 = reference)
        in
        Printf.printf "jobs 1/2/4 + FTR_EXEC_SEQ=1 merged outcomes identical: %b\n" identical;
        (* Snapshot round trip through a scratch file: save, then the mmap
           load the CLI serves from. *)
        let snap = Filename.temp_file "ftr_scale" ".ftrsnap" in
        Fun.protect ~finally:(fun () -> try Sys.remove snap with Sys_error _ -> ()) @@ fun () ->
        let (), save_dt = timed (fun () -> Snapshot.save net ~path:snap) in
        let reloaded, load_dt = timed (fun () -> Snapshot.load ~path:snap ()) in
        let snap_bytes = (Unix.stat snap).Unix.st_size in
        if Network.size reloaded <> n then failwith "scale: snapshot round-trip lost nodes";
        (* The file is the size its header implies, and that is the 64-byte
           header plus exactly the vectors the network holds: a full
           network's file carries no positions section. *)
        let want_bytes = Snapshot.expected_bytes ~line_size:n ~nodes:n ~edges in
        if snap_bytes <> want_bytes || snap_bytes <> 64 + bytes_int32 then
          failwith
            (Printf.sprintf "scale: snapshot is %d bytes; header implies %d, held vectors %d + 64"
               snap_bytes want_bytes bytes_int32);
        Printf.printf "snapshot: %d bytes, save %.3f s, mmap load %.3f s\n%!" snap_bytes
          save_dt load_dt;
        let open Ftr_obs.Json in
        ( Obj
            [
              ("n", Int n);
              ("edges", Int edges);
              ("build_seconds", Float build_dt);
              ("build_seconds_jobs1", Float build_dt1);
              ("build_identical_across_jobs", Bool build_identical);
              ("build_nodes_per_second", Float (float_of_int n /. build_dt));
              ("bytes_per_node_int32", Float (per_node bytes_int32));
              ("bytes_per_node_int_array", Float (per_node bytes_int_array));
              ("footprint_ratio", Float ratio);
              ("route_scratch_bytes", Int route_scratch_bytes);
              ("batch_hops_per_second_jobs1", Float hps1);
              ("batch_hops_per_second", Float hps);
              ("route_hops_per_second", Float route_hps);
              ("lockstep_outcomes_identical", Bool lockstep_identical);
              ("jobs", Int jobs);
              ("outcomes_identical_across_jobs", Bool identical);
              ("snapshot_bytes", Int snap_bytes);
              ("snapshot_save_seconds", Float save_dt);
              ("snapshot_load_seconds", Float load_dt);
            ],
          [
            (Printf.sprintf "n=%d build_identical_across_jobs" n, build_identical);
            (Printf.sprintf "n=%d outcomes_identical_across_jobs" n, identical);
            (Printf.sprintf "n=%d lockstep_outcomes_identical" n, lockstep_identical);
            ( Printf.sprintf "n=%d route_scratch_bytes independent of n" n,
              route_scratch_bytes = scratch_bytes_2 );
          ] ))
      sizes
  in
  write_report "BENCH_scale.json" ~asserts:(List.concat_map snd rows)
    Ftr_obs.Json.(
      Obj
        [
          ("links", Int links);
          ("messages", Int messages);
          ("full_scale", Bool full);
          ("smoke", Bool smoke);
          ("sizes", List (List.map fst rows));
        ])

(* ------------------------------------------------------------------ *)
(* Flight-recorder overhead                                            *)
(* ------------------------------------------------------------------ *)

(* Route throughput under three telemetry settings — everything off, obs
   on with the recorder muted, and full-fidelity tracing — plus a bounded-
   retention check: however many routes record, the ring never grows past
   its capacity. Does not touch BENCH_route.json (the route section
   times with obs forced off). *)
let run_tracing () =
  let n = 1 lsl 13 in
  let links = 13 in
  let messages = if smoke then 2_000 else 20_000 in
  section
    (Printf.sprintf
       "FLIGHT RECORDER — tracing overhead and bounded retention\n\
        (n=%d, links=%d, %d messages per timing)" n links messages);
  Ftr_obs.Flag.with_mode false @@ fun () ->
  Fun.protect
    ~finally:(fun () ->
      Ftr_obs.Tracing.set_recording true;
      Ftr_obs.Tracing.force_full false;
      Ftr_obs.Tracing.reset ())
  @@ fun () ->
  let rng = Rng.of_int (seed + 79) in
  let net = Network.build_ideal ~n ~links (Rng.split rng) in
  let mask = Ftr_core.Failure.random_node_fraction (Rng.split rng) ~n ~fraction:0.3 in
  let failures = Ftr_core.Failure.of_node_mask mask in
  let alive = Ftr_graph.Bitset.get mask in
  let scratch = Route.scratch net in
  let route_all () =
    let pair_rng = Rng.of_int (seed + 80) in
    let live () = draw_alive pair_rng ~n alive in
    let hops = ref 0 in
    for _ = 1 to messages do
      let src = live () and dst = live () in
      hops :=
        !hops
        + Route.hops
            (Route.route ~failures
               ~strategy:(Route.Backtrack { history = 5 })
               ~rng:pair_rng ~scratch net ~src ~dst)
    done;
    !hops
  in
  let hops_per_second () =
    let hops, dt = timed route_all in
    float_of_int hops /. dt
  in
  let off_hps = hops_per_second () in
  Ftr_obs.Flag.set_mode true;
  Ftr_obs.Tracing.reset ();
  Ftr_obs.Tracing.set_recording false;
  let muted_hps = hops_per_second () in
  Ftr_obs.Tracing.set_recording true;
  Ftr_obs.Tracing.set_seed seed;
  Ftr_obs.Tracing.force_full true;
  let traced_hps = hops_per_second () in
  Printf.printf "telemetry off:            %12.0f hops/s\n" off_hps;
  Printf.printf "obs on, recorder muted:   %12.0f hops/s (%.2fx slower than off)\n" muted_hps
    (off_hps /. muted_hps);
  Printf.printf "full-fidelity tracing:    %12.0f hops/s (%.2fx slower than off)\n%!" traced_hps
    (off_hps /. traced_hps);
  Printf.printf "retained %d / pinned %d traces after %d recorded routes\n%!"
    (Ftr_obs.Tracing.retained_count ())
    (Ftr_obs.Tracing.pinned_count ())
    (Ftr_obs.Tracing.completed ());
  if Ftr_obs.Tracing.retained_count () > !Ftr_obs.Tracing.ring_capacity then
    failwith "flight recorder ring exceeded its capacity"

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks                                           *)
(* ------------------------------------------------------------------ *)

let run_micro () =
  section "MICRO-BENCHMARKS — Bechamel (time per operation, OLS on run count)";
  let open Bechamel in
  let open Toolkit in
  let n = 1 lsl 14 in
  let links = 14 in
  let rng = Rng.of_int seed in
  let net = Network.build_ideal ~n ~links rng in
  let pl = Ftr_prng.Sample.power_law ~exponent:1.0 ~max_length:(n - 1) in
  let det = Network.build_deterministic ~n ~base:2 in
  let mask = Ftr_core.Failure.random_node_fraction rng ~n ~fraction:0.3 in
  let failures = Ftr_core.Failure.of_node_mask mask in
  let live () = draw_alive rng ~n (Ftr_graph.Bitset.get mask) in
  let tests =
    [
      (* Rng.bits, not Rng.bits64: the step itself, without the int64 box
         that the bits64 API returns. *)
      Test.make ~name:"xoshiro-next" (Staged.stage (fun () -> ignore (Rng.bits rng)));
      Test.make ~name:"power-law-draw"
        (Staged.stage (fun () -> ignore (Ftr_prng.Sample.power_law_draw pl rng ~upto:(n - 1))));
      Test.make ~name:"route-2sided-ideal"
        (Staged.stage (fun () ->
             ignore (Route.route net ~src:(Rng.int rng n) ~dst:(Rng.int rng n))));
      Test.make ~name:"route-deterministic"
        (Staged.stage (fun () ->
             ignore (Route.route det ~src:(Rng.int rng n) ~dst:(Rng.int rng n))));
      Test.make ~name:"route-backtrack-30%fail"
        (Staged.stage (fun () ->
             ignore
               (Route.route ~failures ~strategy:(Route.Backtrack { history = 5 }) ~rng net
                  ~src:(live ()) ~dst:(live ()))));
      Test.make ~name:"build-ideal-4096x12"
        (Staged.stage (fun () -> ignore (Network.build_ideal ~n:4096 ~links:12 rng)));
      Test.make ~name:"heuristic-build-1024x8"
        (Staged.stage (fun () -> ignore (Heuristic.build ~n:1024 ~links:8 rng)));
    ]
  in
  let grouped = Test.make_grouped ~name:"ftr" tests in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:None () in
  let raw = Benchmark.all cfg Instance.[ monotonic_clock ] grouped in
  let ols = Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| Measure.run |] in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let rows = Hashtbl.fold (fun name v acc -> (name, v) :: acc) results [] in
  Printf.printf "%40s %16s %10s\n" "benchmark" "time/run" "r^2";
  List.iter
    (fun (name, v) ->
      let time =
        match Analyze.OLS.estimates v with Some (t :: _) -> t | Some [] | None -> nan
      in
      let r2 = match Analyze.OLS.r_square v with Some r -> r | None -> nan in
      let pretty =
        if time > 1e9 then Printf.sprintf "%.3f s" (time /. 1e9)
        else if time > 1e6 then Printf.sprintf "%.3f ms" (time /. 1e6)
        else if time > 1e3 then Printf.sprintf "%.3f us" (time /. 1e3)
        else Printf.sprintf "%.1f ns" time
      in
      Printf.printf "%40s %16s %10.4f\n%!" name pretty r2)
    (List.sort (fun (a, _) (b, _) -> String.compare a b) rows)

(* Each harness section runs under a [Ftr_obs.Span] so the closing report
   shows where the wall time went, alongside whatever metrics the layers
   recorded while the sections ran. *)
let run_section name f =
  let selected =
    match only_sections with
    | None -> true
    | Some names -> List.exists (fun s -> s = name || "bench." ^ s = name) names
  in
  if selected then begin
    Ftr_obs.Span.time name f;
    Printf.printf "\n[obs] span report after %s:\n%s%!" name (Ftr_obs.Export.span_report ())
  end

let () =
  let t0 = Unix.gettimeofday () in
  (* The harness is an observability consumer: telemetry is on regardless
     of FTR_OBS, so every section feeds the final snapshot. *)
  Ftr_obs.Flag.set_mode true;
  Printf.printf "Fault-tolerant routing in peer-to-peer systems — benchmark harness\n";
  Printf.printf "scale: %s (set FTR_BENCH_FULL=1 for larger sizes)\n%!"
    (if full then "FULL" else "default (reduced)");
  run_section "bench.route" run_route_throughput;
  run_section "bench.scale" run_scale;
  run_section "bench.tracing" run_tracing;
  run_section "bench.exec" run_exec;
  run_section "bench.serve" run_serve;
  run_section "bench.lint" run_lint;
  run_section "bench.micro" run_micro;
  (* Closing metrics snapshot: one line of JSON on stdout. *)
  Printf.printf "\n[obs] metrics snapshot: %s\n"
    (Ftr_obs.Json.to_string (Ftr_obs.Export.json_snapshot ()));
  Printf.printf "\ntotal wall time: %.1f s\n%!" (Unix.gettimeofday () -. t0)
