(* ftr-lint: disable-file R1 T2 -- part of the benchmark harness, whose wall-clock reads are the measurement *)

(* Every metric the benchmark reports, with its unit. The names and units
   must match BENCHMARK.json exactly, which also gives each metric's
   direction; the @bench-smoke alias checks that they do. README.md says what each metric is, which
   layer moves it and on which workload. *)

type metric = { name : string; unit : string }

let m name unit = { name; unit }

let workloads = [ "route_large"; "route_faulty"; "serve_steady"; "serve_churn"; "overlay_churn" ]

(* Reported by every untraced run. *)
let end_to_end =
  [
    m "setup_s" "s";
    m "lookups_per_s" "1/s";
    m "latency_p50_ms" "ms";
    m "latency_p99_ms" "ms";
    m "delivered_frac" "ratio";
    m "hops_mean" "hops";
    m "hops_p99" "hops";
    m "rss_peak_mb" "MB";
  ]

(* Reported by every traced run; a layer a workload does not use reads 0. *)
let per_layer =
  [
    m "network.build_s" "s";
    m "network.bytes_per_node" "B";
    m "snapshot.save_s" "s";
    m "snapshot.map_s" "s";
    m "snapshot.validate_s" "s";
    m "failure.mask_s" "s";
    m "route.call_us_p50" "us";
    m "route.call_us_p99" "us";
    m "route.ns_per_hop" "ns";
    m "route.hops_per_call" "hops";
    m "route.minor_words_per_call" "words";
    m "route.failed_no_live_neighbor" "count";
    m "route.failed_hop_limit" "count";
    m "route_batch.run_s" "s";
    m "route_batch.self_share" "ratio";
    m "pool.jobs" "count";
    m "pool.round_us" "us";
    m "pool.dispatch_share" "ratio";
    m "svc.request_us_p50" "us";
    m "svc.join_us_p50" "us";
    m "svc.join_us_p99" "us";
    m "svc.crash_us_p50" "us";
    m "svc.leave_us_p50" "us";
    m "svc.stabilize_us_p50" "us";
    m "svc.control_share" "ratio";
    m "svc.of_overlay_s" "s";
    m "svc.step_ms_p50" "ms";
    m "svc.step_ms_p99" "ms";
    m "svc.rounds" "count";
    m "svc.handled_per_round" "count";
    m "svc.ns_per_envelope" "ns";
    m "svc.round_share" "ratio";
    m "svc.drain_s" "s";
    m "svc.forwards_per_lookup" "count";
    m "svc.probes_per_lookup" "count";
    m "svc.repairs" "count";
    m "svc.bounces" "count";
    m "svc.dead_letters" "count";
    m "svc.dropped" "count";
    m "overlay.populate_s" "s";
    m "overlay.lookup_us_p50" "us";
    m "overlay.join_us_p50" "us";
    m "overlay.join_us_p99" "us";
    m "overlay.crash_us_p50" "us";
    m "overlay.leave_us_p50" "us";
    m "overlay.messages_per_lookup" "count";
    m "overlay.probes_per_lookup" "count";
    m "overlay.repairs" "count";
    m "sim.slice_ms_p50" "ms";
    m "sim.slice_ms_p99" "ms";
    m "sim.events" "count";
    m "sim.ns_per_event" "ns";
    m "sim.pending_max" "count";
    m "gc.minor_words_per_lookup" "words";
    m "gc.major_collections" "count";
    m "gc.top_heap_mb" "MB";
    m "gen.issue_lag_ms_p99" "ms";
    m "obs.traced_slowdown" "ratio";
    m "host.clock_slowdown" "ratio";
    m "trace.unattributed_share" "ratio";
  ]

(* Spans the benchmark opens around its own loops rather than around a
   call into a layer: their self time is what the layers leave
   unexplained. *)
let bench_spans = [ "workload"; "setup"; "measure"; "window"; "tick" ]

(* The layer a span belongs to, for the self-time table. *)
let layer_of_span name =
  if List.exists (String.equal name) bench_spans then "benchmark"
  else match String.index_opt name '.' with Some i -> String.sub name 0 i | None -> name
