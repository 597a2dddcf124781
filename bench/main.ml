(* Benchmark harness: times the hot paths — the router, the int32 CSR
   core at scale, the flight recorder, the multicore executor on the
   experiment drivers, the message-passing service, the lint analyzer —
   and finishes with Bechamel micro-benchmarks. Each timed section writes
   BENCH_<section>.json in the one shape [publish] defines. The paper's
   figures and tables are `p2psim paper`.

     main.exe [--jobs N]

   --jobs N is the N of the exec and serve sections' jobs=1 against
   jobs=N comparisons (default: the pool's default job count).
   FTR_BENCH_FULL=1 runs larger sizes, FTR_BENCH_SMOKE=1 shrinks the
   timed sections to seconds (the @perf alias), and
   FTR_BENCH_ONLY=<name>[,<name>...] runs only the named sections. A bad
   flag or section name exits 2 before any section runs. *)

module E = Ftr_core.Experiment
module Network = Ftr_core.Network
module Route = Ftr_core.Route
module Heuristic = Ftr_core.Heuristic
module Rng = Ftr_prng.Rng
module Json = Ftr_obs.Json
module Tracing = Ftr_obs.Tracing

let die fmt = Printf.ksprintf (fun msg -> Printf.eprintf "bench: %s\n%!" msg; exit 2) fmt

(* The FTR_* switches take the same words as every binary's, and a
   switch set to anything else stops the run before any section. *)
let () =
  match
    Ftr_debug.Switch.invalid (Ftr_debug.Switch.names @ [ "FTR_BENCH_FULL"; "FTR_BENCH_SMOKE" ])
  with
  | Some refusal -> die "%s" refusal
  | None -> ()

let full = Ftr_debug.Switch.read "FTR_BENCH_FULL" ~default:false

let smoke = Ftr_debug.Switch.read "FTR_BENCH_SMOKE" ~default:false

let seed = 0xF7A

(* The executor's contract makes the job count a pure wall-clock knob:
   results never move. *)
let jobs =
  match List.tl (Array.to_list Sys.argv) with
  | [] -> Ftr_exec.Pool.default_jobs ()
  | [ "--jobs"; j ] -> (
      match int_of_string_opt j with
      | Some j when j >= 1 -> j
      | _ -> die "--jobs takes a count of at least 1, not %S" j)
  | args -> die "usage: main.exe [--jobs N], not %S" (String.concat " " args)

(* A uniform draw from [rng] over the nodes [0, n) that pass [alive]. *)
let rec draw_alive rng ~n alive =
  let v = Rng.int rng n in
  if alive v then v else draw_alive rng ~n alive

(* ------------------------------------------------------------------ *)
(* The one runner and the one report                                   *)
(* ------------------------------------------------------------------ *)

(* A quantity over the passes, or a count taken once (median = q1 = q3). *)
type row = { name : string; unit : string; median : float; q1 : float; q3 : float }

type report = { params : (string * Json.t) list; rows : row list; asserts : (string * bool) list }

(* One pass swings by tens of percent on a shared host. *)
let passes = 5

let exact name unit v = { name; unit; median = v; q1 = v; q3 = v }

(* Every timed quantity of the harness. Each side runs once per pass,
   and the side that runs first rotates from pass to pass, so drift on
   the host falls on every side alike. A full major collection before
   each run keeps one run's garbage off the next one's clock (and the
   lint corpora off the peak heap). [value output seconds] is one
   pass's quantity; a side's row keeps the median pass and its
   quartiles. Returns the rows, the first pass's output of the first
   side, and whether every output is [same] as that one: the identity
   assert of a comparison whose settings must not move the result. *)
let measure ?(same = ( = )) ~unit ~value sides =
  let sides = Array.of_list sides in
  let k = Array.length sides in
  let values = Array.make_matrix k passes 0. in
  let first = ref None and agree = ref true in
  for p = 0 to passes - 1 do
    for i = 0 to k - 1 do
      let s = (p + i) mod k in
      Gc.full_major ();
      let t0 = Ftr_obs.Span.now () in
      let out = snd sides.(s) () in
      values.(s).(p) <- value out (Ftr_obs.Span.elapsed t0);
      match !first with None -> first := Some out | Some o -> agree := !agree && same o out
    done
  done;
  let row s (name, _) =
    let q = Ftr_stats.Quantile.compute values.(s) in
    { name; unit; median = q 0.5; q1 = q 0.25; q3 = q 0.75 }
  in
  (Array.to_list (Array.mapi row sides), Option.get !first, !agree)

let seconds _ dt = dt

let num v = if Float.abs v >= 1e4 then Printf.sprintf "%.0f" v else Printf.sprintf "%.4g" v

(* Runs one timed section under its [Ftr_obs.Span] and writes
   BENCH_<section>.json: section, passes, params, rows (name, unit,
   median, q1, q3), the span breakdown recorded during the section and
   the identity asserts. The console table renders the same rows. The
   file is written first, so the evidence survives, then a false assert
   fails the run. *)
let publish section run =
  Ftr_obs.Span.reset ();
  let report = Ftr_obs.Span.time ("bench." ^ section) run in
  let spans = Ftr_obs.Span.stats () in
  let params = ("full_scale", Json.Bool full) :: ("smoke", Json.Bool smoke) :: report.params in
  let path = "BENCH_" ^ section ^ ".json" in
  let json =
    let open Json in
    let row r =
      Obj
        [
          ("name", String r.name); ("unit", String r.unit);
          ("median", Float r.median); ("q1", Float r.q1); ("q3", Float r.q3);
        ]
    and span (s : Ftr_obs.Span.stat) =
      Obj
        [
          ("name", String s.span_name); ("count", Int s.count);
          ("total", Float s.total); ("self", Float s.self);
        ]
    and assertion (name, holds) = Obj [ ("name", String name); ("holds", Bool holds) ] in
    Obj
      [
        ("section", String section);
        ("passes", Int passes);
        ("params", Obj params);
        ("rows", List (List.map row report.rows));
        ("spans", List (List.map span spans));
        ("asserts", List (List.map assertion report.asserts));
      ]
  in
  Out_channel.with_open_text path (fun oc ->
      output_string oc (Json.to_string json);
      output_char oc '\n');
  Printf.printf "\n=== %s: median of %d passes [q1, q3]; %s\n" section passes
    (String.concat ", " (List.map (fun (k, v) -> k ^ "=" ^ Json.to_string v) params));
  List.iter
    (fun r ->
      Printf.printf "  %-52s %12s [%s, %s] %s\n" r.name (num r.median) (num r.q1) (num r.q3) r.unit)
    report.rows;
  List.iter
    (fun (s : Ftr_obs.Span.stat) ->
      Printf.printf "  span %-38s x%-6d total %8.3f s  self %8.3f s\n" s.span_name s.count s.total
        s.self)
    spans;
  List.iter
    (fun (name, holds) ->
      Printf.printf "  assert %s: %s\n" name (if holds then "holds" else "FALSE"))
    report.asserts;
  Printf.printf "[bench] wrote %s\n%!" path;
  if List.exists (fun (_, holds) -> not holds) report.asserts then begin
    Printf.eprintf "[bench] %s: an identity assert is false\n%!" path;
    exit 1
  end

(* ------------------------------------------------------------------ *)
(* Route throughput: the flat-CSR router                               *)
(* ------------------------------------------------------------------ *)

(* Hops/second of the production router on two streams over one
   network: any pair with no failures (Terminate), and live pairs under
   30% node failures (Backtrack, 5-node history), each routed one
   Route.route call per pair and as one Route_batch.run call at jobs=1.
   Telemetry is off so the number is the router's, not the obs layer's
   (the tracing section measures that). Every pass routes the same pairs
   and must hop the same total, batch or not. The outcomes of these
   streams are pinned as digests in test/test_csr.ml, recorded from the
   pre-refactor router. *)
let run_route () =
  let n = if full then 1 lsl 14 else 1 lsl 13 in
  let links = 14 in
  let messages = if smoke then 3_000 else if full then 60_000 else 30_000 in
  Ftr_obs.Flag.with_mode false @@ fun () ->
  let rng = Rng.of_int seed in
  let net = Network.build_ideal ~n ~links (Rng.split rng) in
  let mask = Ftr_core.Failure.random_node_fraction (Rng.split rng) ~n ~fraction:0.3 in
  let failures = Ftr_core.Failure.of_node_mask mask in
  let alive = Ftr_graph.Bitset.get mask in
  let scratch = Route.scratch net in
  let stream name ~failures ~strategy ~pick =
    let route_pairs () =
      let pair_rng = Rng.of_int (seed + 78) in
      let hops = ref 0 in
      for _ = 1 to messages do
        let src, dst = pick pair_rng in
        hops := !hops + Route.hops (Route.route ~failures ~strategy ~scratch net ~src ~dst)
      done;
      !hops
    in
    let rows, hops, same =
      measure ~unit:"hops/s"
        ~value:(fun hops dt -> float_of_int hops /. dt)
        [ (name, route_pairs) ]
    in
    (* The same pairs, in one Route_batch.run call on this domain. *)
    let pairs =
      let pair_rng = Rng.of_int (seed + 78) in
      Array.init messages (fun _ -> pick pair_rng)
    in
    let batch () =
      Array.fold_left
        (fun acc o -> acc + Route.hops o)
        0
        (Ftr_core.Route_batch.run ~jobs:1 ~failures ~strategy net ~pairs)
    in
    let batch_rows, batch_hops, batch_same =
      measure ~unit:"hops/s"
        ~value:(fun hops dt -> float_of_int hops /. dt)
        [ (name ^ ", batch jobs=1", batch) ]
    in
    ( rows @ batch_rows,
      [
        (name ^ " passes agree on hops", same);
        (name ^ ", batch jobs=1 passes agree on hops", batch_same && batch_hops = hops);
      ] )
  in
  let streams =
    [
      stream "healthy_terminate" ~failures:Ftr_core.Failure.none ~strategy:Route.Terminate
        ~pick:(fun r -> (Rng.int r n, Rng.int r n));
      stream "fail30_backtrack5" ~failures ~strategy:(Route.Backtrack { history = 5 })
        ~pick:(fun r -> (draw_alive r ~n alive, draw_alive r ~n alive));
    ]
  in
  {
    params = [ ("n", Int n); ("links", Int links); ("messages", Int messages) ];
    rows = List.concat_map fst streams;
    asserts = List.concat_map snd streams;
  }

(* ------------------------------------------------------------------ *)
(* Scale: compact CSR footprint, streaming build, batch routing        *)
(* ------------------------------------------------------------------ *)

(* The gate for the int32/Bigarray core, per network size: construction
   at the default job count against jobs=1 (byte-identical networks,
   generators left at the same place), bytes/node against the 8-byte
   int-array baseline the refactor replaced, batch route throughput at
   jobs=1 and jobs=N against one Route.route call per pair (identical
   outcomes), jobs-invariance of the merged outcome vector under
   failures (--jobs 1/2/4 and FTR_EXEC_SEQ=1), the bytes of a fresh
   [Route.scratch] (equal at every n), and the snapshot save + mmap load
   round trip (docs/MEMORY_LAYOUT.md). N is the pool's default here:
   the build takes no job count. *)
let run_scale () =
  let module Route_batch = Ftr_core.Route_batch in
  let module Snapshot = Ftr_core.Snapshot in
  let module Csr = Ftr_graph.Adjacency.Csr in
  let module Pool = Ftr_exec.Pool in
  let sizes =
    if smoke then [ 1 lsl 14 ]
    else if full then [ 1 lsl 16; 1 lsl 18; 1 lsl 20; 1 lsl 22 ]
    else [ 1 lsl 16; 1 lsl 18; 1 lsl 20 ]
  in
  let links = 8 in
  let messages = if smoke then 4_000 else 20_000 in
  let jobs = Pool.default_jobs () in
  Ftr_obs.Flag.with_mode false @@ fun () ->
  (* The router's working state is sized to one route, not to the
     network: a fresh scratch is as big at every n as on two nodes. *)
  let scratch_bytes net =
    Obj.reachable_words (Obj.repr (Route.scratch net)) * (Sys.word_size / 8)
  in
  let scratch_bytes_2 = scratch_bytes (Network.build_ideal ~n:2 ~links:0 (Rng.of_int seed)) in
  let per_size n =
    let tag s = Printf.sprintf "n=%d %s" n s in
    let rng = Rng.of_int (seed + n) in
    let build_rng = Rng.split rng in
    let build () =
      let r = Rng.copy build_rng in
      let net = Network.build_ideal ~n ~links r in
      (net, Rng.bits64 r)
    in
    let build_rows, (net, _), build_identical =
      measure ~unit:"s" ~value:seconds
        ~same:(fun (a, x) (b, y) -> Network.equal a b && Int64.equal x y)
        [
          (tag "build, jobs=N", build);
          (tag "build, jobs=1", fun () -> Pool.with_sequential_forced true build);
        ]
    in
    let edges = Csr.edge_count (Network.csr net) in
    (* Footprint: the vectors a full network holds — offsets (n+1) and
       targets (E) but no positions — at 4 bytes/word, against the
       pre-refactor positions, offsets and targets as 8-byte ints. *)
    let bytes_int32 = 4 * (n + 1 + edges) and bytes_int_array = 8 * (n + (n + 1) + edges) in
    let per_node b = float_of_int b /. float_of_int n in
    let route_scratch_bytes = scratch_bytes net in
    (* Healthy Terminate pairs for throughput. *)
    let pair_rng = Rng.of_int (seed + 79) in
    let pairs = Array.init messages (fun _ -> (Rng.int pair_rng n, Rng.int pair_rng n)) in
    let route_rows, _, lockstep_identical =
      measure ~unit:"hops/s"
        ~value:(fun outcomes dt ->
          float_of_int (Array.fold_left (fun acc o -> acc + Route.hops o) 0 outcomes) /. dt)
        [
          (tag "batch route, jobs=1", fun () -> Route_batch.run ~jobs:1 net ~pairs);
          (tag "batch route, jobs=N", fun () -> Route_batch.run ~jobs net ~pairs);
          ( tag "per-call route",
            fun () -> Array.map (fun (src, dst) -> Route.route net ~src ~dst) pairs );
        ]
    in
    (* The same identity under failures with the seeded Random_reroute
       strategy, the case where per-route rng derivation could diverge
       across schedules. *)
    let mask = Ftr_core.Failure.random_node_fraction (Rng.split rng) ~n ~fraction:0.3 in
    let failures = Ftr_core.Failure.of_node_mask mask in
    let alive = Ftr_graph.Bitset.get mask in
    let live_rng = Rng.of_int (seed + 81) in
    let live () = draw_alive live_rng ~n alive in
    let live_pairs = Array.init messages (fun _ -> (live (), live ())) in
    let reroute ~jobs =
      Route_batch.run ~jobs ~failures ~strategy:(Route.Random_reroute { attempts = 3 })
        ~seed:(seed + 80) net ~pairs:live_pairs
    in
    let reference = reroute ~jobs:1 in
    let reroute_identical =
      List.for_all (fun j -> reroute ~jobs:j = reference) [ 2; 4 ]
      && Pool.with_sequential_forced true (fun () -> reroute ~jobs:4 = reference)
    in
    let snap = Filename.temp_file "ftr_scale" ".ftrsnap" in
    Fun.protect ~finally:(fun () -> try Sys.remove snap with Sys_error _ -> ()) @@ fun () ->
    let save_rows, (), _ =
      measure ~unit:"s" ~value:seconds
        [ (tag "snapshot save", fun () -> Snapshot.save net ~path:snap) ]
    in
    let load_rows, reloaded, loads_agree =
      measure ~unit:"s" ~value:seconds ~same:Network.equal
        [ (tag "snapshot mmap load", fun () -> Snapshot.load ~path:snap ()) ]
    in
    let snap_bytes = (Unix.stat snap).Unix.st_size in
    ( build_rows @ route_rows @ save_rows @ load_rows
      @ [
          exact (tag "edges") "count" (float_of_int edges);
          exact (tag "bytes per node") "B" (per_node bytes_int32);
          exact (tag "bytes per node, int-array baseline") "B" (per_node bytes_int_array);
          exact (tag "route scratch") "B" (float_of_int route_scratch_bytes);
          exact (tag "snapshot size") "B" (float_of_int snap_bytes);
        ],
      [
        (tag "build identical across jobs", build_identical);
        (tag "full network holds no positions vector", Option.is_none (Network.positions net));
        (tag "batch outcomes identical across jobs and to per-call route", lockstep_identical);
        (tag "reroute outcomes identical across jobs 1/2/4 and FTR_EXEC_SEQ=1", reroute_identical);
        (tag "route scratch bytes independent of n", route_scratch_bytes = scratch_bytes_2);
        (tag "snapshot loads equal the saved network", loads_agree && Network.equal net reloaded);
        (* The header's size, and the 64-byte header plus exactly the
           vectors the network holds. *)
        ( tag "snapshot is the header plus the held vectors",
          snap_bytes = Snapshot.expected_bytes ~line_size:n ~nodes:n ~edges
          && snap_bytes = 64 + bytes_int32 );
      ] )
  in
  let sized = List.map per_size sizes in
  {
    params =
      [
        ("sizes", List (List.map (fun n -> Json.Int n) sizes));
        ("links", Int links);
        ("messages", Int messages);
        ("jobs", Int jobs);
      ];
    rows = List.concat_map fst sized;
    asserts = List.concat_map snd sized;
  }

(* ------------------------------------------------------------------ *)
(* Flight-recorder overhead                                            *)
(* ------------------------------------------------------------------ *)

(* Route throughput under three telemetry settings — everything off, obs
   on with the recorder muted, and full-fidelity tracing — which must
   route alike, and bounded retention: however many routes record, the
   ring never grows past its capacity. *)
let run_tracing () =
  let n = 1 lsl 13 in
  let links = 13 in
  let messages = if smoke then 2_000 else 20_000 in
  Ftr_obs.Flag.with_mode false @@ fun () ->
  Fun.protect
    ~finally:(fun () ->
      Tracing.set_recording true;
      Tracing.reset ())
  @@ fun () ->
  let rng = Rng.of_int (seed + 79) in
  let net = Network.build_ideal ~n ~links (Rng.split rng) in
  let mask = Ftr_core.Failure.random_node_fraction (Rng.split rng) ~n ~fraction:0.3 in
  let failures = Ftr_core.Failure.of_node_mask mask in
  let alive = Ftr_graph.Bitset.get mask in
  let scratch = Route.scratch net in
  let route_all ~obs ~record () =
    Ftr_obs.Flag.set_mode obs;
    Tracing.set_recording record;
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
  Tracing.reset ();
  Tracing.set_seed seed;
  let modes =
    [
      ("telemetry off", route_all ~obs:false ~record:false);
      ("obs on, recorder muted", route_all ~obs:true ~record:false);
      ("full-fidelity tracing", route_all ~obs:true ~record:true);
    ]
  in
  let rows, _, same =
    measure ~unit:"hops/s" ~value:(fun hops dt -> float_of_int hops /. dt) modes
  in
  let recorded = Tracing.completed () and retained = Tracing.retained_count ()
  and pinned = Tracing.pinned_count () in
  (* What each mode allocates per hop, over one more run of the stream:
     the mode's own cost, whatever the clock reads. *)
  let words (name, run) =
    let before = Gc.minor_words () in
    let hops = run () in
    exact (name ^ ", minor words") "words/hop" ((Gc.minor_words () -. before) /. float_of_int hops)
  in
  let words_rows = List.map words modes in
  {
    params =
      [
        ("n", Int n);
        ("links", Int links);
        ("messages", Int messages);
        ("ring_capacity", Int !Tracing.ring_capacity);
      ];
    rows =
      rows
      @ [
          exact "recorded routes" "count" (float_of_int recorded);
          exact "retained traces" "count" (float_of_int retained);
          exact "pinned traces" "count" (float_of_int pinned);
        ]
      @ words_rows;
    asserts =
      [
        ("hops identical with telemetry off, muted and tracing", same);
        ("retained traces within the ring capacity", retained <= !Tracing.ring_capacity);
      ];
  }

(* ------------------------------------------------------------------ *)
(* Exec subsystem: multicore speedup on the experiment drivers          *)
(* ------------------------------------------------------------------ *)

(* [Pool.run_resident]'s own cost, with nothing of the service in it:
   rounds of 8 jobs of pure arithmetic, about 45 µs each on a 2-vCPU
   host, on a resident crew of 1 and of N, in µs per round. Each side
   counts the jobs run off the caller's domain, so the jobs=N row tells
   a crew whose parked workers took no share (it never ran in
   parallel) from one whose workers took their share and still did not
   gain (the host held it back). Each job writes its own slot; the
   sums must agree. *)
let resident_rows () =
  let module Pool = Ftr_exec.Pool in
  let rounds = if smoke then 50 else 400 and count = 8 in
  let job out i =
    let x = ref (i + 1) in
    for _ = 1 to 20_000 do
      x := (!x * 0x2545F491) lxor (!x lsr 29)
    done;
    out.(i) <- !x
  in
  let side pool parked () =
    let caller = (Domain.self () :> int) and out = Array.make count 0 and sum = ref 0 in
    let f i =
      if not (Int.equal (Domain.self () :> int) caller) then Atomic.incr parked;
      job out i
    in
    for _ = 1 to rounds do
      Pool.run_resident pool ~count f;
      Array.iter (fun v -> sum := !sum + v) out
    done;
    !sum
  in
  let parked = Atomic.make 0 in
  Pool.with_resident ~jobs:1 @@ fun one ->
  Pool.with_resident ~jobs @@ fun crew ->
  let name = "resident round (8 arithmetic jobs)" in
  let rows, _, same =
    measure ~unit:"us/round"
      ~value:(fun _ dt -> dt *. 1e6 /. float_of_int rounds)
      [
        (name ^ ", jobs=1", side one (Atomic.make 0));
        (name ^ ", jobs=N", side crew parked);
      ]
  in
  ( rows
    @ [
        exact (name ^ ", jobs=N: share run by parked workers") "ratio"
          (float_of_int (Atomic.get parked) /. float_of_int (passes * rounds * count));
      ],
    (name ^ " sums identical across jobs", same) )

(* The drivers users run (`p2psim paper`), at jobs=1 and jobs=N on
   identical arguments. The executor guarantees identical output
   (asserted structurally here, byte for byte in the test suite), so only
   the wall clock differs. On a one-domain host N is 1 too, and the
   params say so. *)
let run_exec () =
  let networks = if full then 8 else 4 in
  let messages = if full then 300 else 150 in
  let n = if full then 1 lsl 13 else 1 lsl 12 in
  let compare name driver =
    let rows, _, same =
      measure ~unit:"s" ~value:seconds
        [ (name ^ ", jobs=1", driver 1); (name ^ ", jobs=N", driver jobs) ]
    in
    (rows, (name ^ " output identical across jobs", same))
  in
  let drivers =
    [
      compare "table1 grid (9 sections)" (fun jobs () ->
          E.table1 ~jobs ~n ~networks:2 ~messages:100 ~trials:100 ~seed ());
      compare "figure5 networks" (fun jobs () -> E.figure5 ~jobs ~networks ~n ~links:12 ~seed ());
      compare "figure6 (fractions x nets)" (fun jobs () ->
          E.figure6 ~jobs ~n ~networks:2 ~messages ~fractions:[ 0.0; 0.3; 0.6 ] ~seed ());
      resident_rows ();
    ]
  in
  {
    params =
      [
        ("jobs", Int jobs);
        ("host_recommended_domains", Int (Domain.recommended_domain_count ()));
      ];
    rows = List.concat_map fst drivers;
    asserts = List.map snd drivers;
  }

(* ------------------------------------------------------------------ *)
(* Service: lookups/s through the actor scheduler                      *)
(* ------------------------------------------------------------------ *)

(* The message-passing service under a churny workload, jobs=1 against
   jobs=N on identical arguments. The scheduler guarantees an identical
   deterministic report (asserted here, byte for byte by @serve), so
   only the wall clock differs. The rate is the service run's own:
   lookups over the rounds' wall time, set-up excluded. The round's own
   allocation is counted apart: the same workload at jobs=1 with
   telemetry off, minor words taken around [Service.step] alone, so
   set-up and the control calls between rounds are left out. Boot is
   timed apart too, at 2^12 and 2^16 actors on lines of 16 points per
   actor: [Service.boot] against the engine overlay's [populate] and
   [Service.of_overlay] of it, which must build the same actors. *)
let run_serve () =
  let module D = Ftr_svc.Driver in
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
  let serve jobs () =
    let words = Gc.minor_words () in
    let r = D.run { cfg with D.jobs = Some jobs } in
    (r.D.res_report, Gc.minor_words () -. words)
  in
  let rows, (r, words), same =
    measure ~unit:"lookups/s"
      ~value:(fun (r, _) _ -> r.D.rp_requests_per_second)
      ~same:(fun (a, _) (b, _) -> D.report_lines a = D.report_lines b)
      [
        ("serve (churny workload), jobs=1", serve 1);
        ("serve (churny workload), jobs=N", serve jobs);
      ]
  in
  let round_words =
    Ftr_obs.Flag.with_mode false @@ fun () ->
    let module S = Ftr_svc.Service in
    let svc = D.boot cfg in
    let rng = Ftr_exec.Seed.rng_for ~seed:cfg.D.seed ~index:cfg.D.line_size in
    let words = ref 0.0 in
    let round f =
      let w = Gc.minor_words () in
      f ();
      words := !words +. (Gc.minor_words () -. w)
    in
    Ftr_exec.Pool.with_resident ~jobs:1 (fun pool ->
        for _ = 1 to cfg.D.ticks do
          D.control cfg rng svc;
          round (fun () -> S.step svc ~pool)
        done;
        round (fun () -> ignore (S.drain svc ~pool)));
    !words /. float_of_int (max 1 (S.stats svc).S.handled)
  in
  let boots =
    List.map
      (fun log_actors ->
        let actors = 1 lsl log_actors in
        let cfg =
          { D.default_config with D.line_size = 16 * actors; initial = actors; links = 8; seed }
        in
        let state svc =
          let b = Buffer.create (64 * actors) in
          Ftr_svc.Service.iter_actors svc (fun v ->
              Printf.bprintf b "%d %b %s %s %s\n" v.av_pos v.av_alive
                (Option.fold ~none:"-" ~some:string_of_int v.av_left)
                (Option.fold ~none:"-" ~some:string_of_int v.av_right)
                (String.concat "," (Array.to_list (Array.map string_of_int v.av_long))));
          Buffer.contents b
        in
        let rows, _, same =
          measure ~unit:"s" ~value:seconds
            ~same:(fun a b -> String.equal (state a) (state b))
            [
              ( Printf.sprintf "boot seconds, engine overlay, 2^%d actors" log_actors,
                fun () -> Ftr_svc.Service.of_overlay ~seed (D.build_overlay cfg) );
              ( Printf.sprintf "boot seconds, Service.boot, 2^%d actors" log_actors,
                fun () -> D.boot cfg );
            ]
        in
        (rows, (Printf.sprintf "boots identical at 2^%d actors" log_actors, same)))
      (if smoke then [ 12 ] else [ 12; 16 ])
  in
  let count name unit v = exact name unit (float_of_int v) in
  {
    params =
      [
        ("jobs", Int jobs);
        ("host_recommended_domains", Int (Domain.recommended_domain_count ()));
        ("line_size", Int cfg.D.line_size);
        ("initial", Int cfg.D.initial);
        ("ticks", Int cfg.D.ticks);
        ("rate", Int cfg.D.rate);
      ];
    rows =
      rows
      @ [
          count "issued" "lookups" r.D.rp_issued;
          count "delivered" "lookups" r.D.rp_delivered;
          count "hops p50" "hops" r.D.rp_p50_hops;
          count "hops p99" "hops" r.D.rp_p99_hops;
          (* jobs=1's first pass, set-up included. *)
          exact "minor words per lookup, jobs=1" "words"
            (words /. float_of_int (max 1 r.D.rp_issued));
          exact "minor words per handled envelope, round only" "words" round_words;
        ]
      @ List.concat_map fst boots;
    asserts = ("report identical across jobs", same) :: List.map snd boots;
  }

(* ------------------------------------------------------------------ *)
(* Lint: analyzer throughput, typed stage and flow stage               *)
(* ------------------------------------------------------------------ *)

(* Both stages load the .cmt corpus on every run (the typed stage also
   test/'s, which T6 reads for its messages) and have no cache of their
   own: dune reruns a lint rule only when a .cmt changed. The typed
   stage (T1-T6) builds the call graph and walks every body; the flow
   stage (D1, D2, D4) builds per-function CFGs and runs the dataflow engine
   to fixpoint, at jobs=1 and jobs=4, whose rendered finding streams
   must agree byte for byte. *)
let run_lint () =
  let root =
    let rec up d =
      if Sys.file_exists (Filename.concat d "dune-project") then d
      else
        let parent = Filename.dirname d in
        if String.equal parent d then die "lint: no dune-project above %s" (Sys.getcwd ())
        else up parent
    in
    up (Sys.getcwd ())
  in
  let dirs = [ "lib"; "bin"; "bench"; "examples" ] in
  let render fs = String.concat "\n" (List.map (fun (f, _) -> Ftr_lint.Finding.to_string f) fs) in
  let typed_rows, (typed_units, typed), _ =
    measure ~unit:"s" ~value:seconds
      [
        ( "typed stage",
          fun () ->
            let state, found = Ftr_lint.Typed_driver.analyze ~root ~dirs () in
            (Array.length state.Ftr_lint.Typed_rules.units, List.length found) );
      ]
  in
  let flow jobs () =
    let found, units = Ftr_lint.Flow_driver.analyze ~jobs ~root ~dirs () in
    (units, List.length found, render found)
  in
  let flow_rows, (flow_units, findings, _), jobs_identical =
    measure ~unit:"s" ~value:seconds
      [ ("flow stage, jobs=1", flow 1); ("flow stage, jobs=4", flow 4) ]
  in
  let count name v = exact name "count" (float_of_int v) in
  {
    params = [ ("dirs", List (List.map (fun d -> Json.String d) dirs)) ];
    rows =
      typed_rows @ flow_rows
      @ [
          count "typed units" typed_units;
          count "typed findings" typed;
          count "flow units" flow_units;
          count "flow findings" findings;
        ];
    asserts = [ ("flow findings identical at jobs 1 and 4", jobs_identical) ];
  }

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks                                           *)
(* ------------------------------------------------------------------ *)

(* Printed only: an OLS fit over run counts is not a pass median. *)
let run_micro () =
  Printf.printf "\n=== micro: Bechamel (time per operation, OLS on run count)\n";
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

let sections =
  List.map
    (fun (name, run) -> (name, fun () -> publish name run))
    [
      ("route", run_route);
      ("scale", run_scale);
      ("tracing", run_tracing);
      ("exec", run_exec);
      ("serve", run_serve);
      ("lint", run_lint);
    ]
  @ [ ("micro", run_micro) ]

(* FTR_BENCH_ONLY=<name>[,<name>...]; unset or empty runs them all. *)
let only =
  match Sys.getenv_opt "FTR_BENCH_ONLY" with
  | None | Some "" -> List.map fst sections
  | Some s ->
      let names = String.split_on_char ',' s in
      List.iter
        (fun name ->
          if not (List.mem_assoc name sections) then
            die "FTR_BENCH_ONLY names no section %S (sections: %s)" name
              (String.concat ", " (List.map fst sections)))
        names;
      names

let () =
  let t0 = Ftr_obs.Span.now () in
  (* The harness is an observability consumer: telemetry is on regardless
     of FTR_OBS, so every section records its span breakdown. *)
  Ftr_obs.Flag.set_mode true;
  Printf.printf "Fault-tolerant routing in peer-to-peer systems — benchmark harness\n";
  Printf.printf "scale: %s (set FTR_BENCH_FULL=1 for larger sizes)\n%!"
    (if full then "FULL" else "default (reduced)");
  List.iter (fun (name, run) -> if List.mem name only then run ()) sections;
  Printf.printf "\ntotal wall time: %.1f s\n%!" (Ftr_obs.Span.elapsed t0)
