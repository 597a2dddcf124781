(* p2psim — command-line driver for every experiment in the reproduction.

     dune exec bin/p2psim.exe -- route --nodes 4096 --src 17 --dst 3967
     dune exec bin/p2psim.exe -- figure5 --nodes 4096 --links 12
     dune exec bin/p2psim.exe -- figure6 --nodes 16384
     dune exec bin/p2psim.exe -- figure7
     dune exec bin/p2psim.exe -- table1
     dune exec bin/p2psim.exe -- adversary
     dune exec bin/p2psim.exe -- byzantine
     dune exec bin/p2psim.exe -- recovery --kill 0.3
     dune exec bin/p2psim.exe -- anatomy
     dune exec bin/p2psim.exe -- dht --replicas 3 --fail 0.3
     dune exec bin/p2psim.exe -- churn --duration 2000 *)

module E = Ftr_core.Experiment
module Network = Ftr_core.Network
module Route = Ftr_core.Route
module Theory = Ftr_core.Theory
module Rng = Ftr_prng.Rng
open Cmdliner

(* Shared options *)

let seed_t =
  Arg.(value & opt int 2002 & info [ "seed" ] ~docv:"SEED" ~doc:"Random seed (reproducible).")

(* [conv] narrowed to the values [valid] accepts; anything else is a
   usage error (exit 124) that names the option and [expected]. *)
let checked conv ~expected valid =
  let parse s =
    match Arg.conv_parser conv s with
    | Ok v when not (valid v) ->
        Error (`Msg (Printf.sprintf "invalid value '%s', expected %s" s expected))
    | r -> r
  in
  Arg.conv (parse, Arg.conv_printer conv)

let nodes_conv = checked Arg.int ~expected:"a node count of at least 2" (fun n -> n >= 2)

let fraction_conv =
  checked Arg.float ~expected:"a fraction in [0, 1)" (fun p -> p >= 0.0 && p < 1.0)

let n_t default =
  Arg.(
    value & opt nodes_conv default
    & info [ "n"; "nodes" ] ~docv:"N" ~doc:"Number of nodes on the line.")

let links_t =
  Arg.(
    value
    & opt (some int) None
    & info [ "links" ] ~docv:"L" ~doc:"Long links per node (default: lg N).")

let networks_t default =
  Arg.(
    value & opt int default
    & info [ "networks" ] ~docv:"K" ~doc:"Independent networks to average over.")

let messages_t default =
  Arg.(
    value & opt int default
    & info [ "messages" ] ~docv:"M" ~doc:"Messages routed per network and data point.")

let resolve_links n = function Some l -> l | None -> int_of_float (Theory.lg n)

let json_t =
  Arg.(
    value & flag
    & info [ "json" ] ~doc:"Emit machine-readable JSON instead of the human-readable table.")

let strategy_t =
  let strategies =
    [
      ("terminate", Route.Terminate);
      ("reroute", Route.Random_reroute { attempts = 1 });
      ("backtrack", Route.Backtrack { history = 5 });
    ]
  in
  Arg.(
    value
    & opt (enum strategies) (Route.Backtrack { history = 5 })
    & info [ "strategy" ] ~docv:"S" ~doc:"terminate | reroute | backtrack.")

let fail_t default =
  Arg.(
    value & opt fraction_conv default
    & info [ "fail" ] ~docv:"P" ~doc:"Fraction of nodes to fail before routing.")

let jobs_t ~doc = Arg.(value & opt (some int) None & info [ "jobs"; "j" ] ~docv:"J" ~doc)

(* The ideal network, then a random [fraction] of its nodes failed, both
   drawn from [rng] in that order: the failure set and its liveness
   test. *)
let ideal_with_failures ~n ~links ~fraction rng =
  let net = Network.build_ideal ~n ~links rng in
  if fraction > 0.0 then
    let mask = Ftr_core.Failure.random_node_fraction rng ~n ~fraction in
    (net, Ftr_core.Failure.of_node_mask mask, Ftr_graph.Bitset.get mask)
  else (net, Ftr_core.Failure.none, fun _ -> true)

(* Telemetry forced on from empty registries, trace identity seeded by
   [seed]: what a run then records is its own workload and nothing
   else, and trace ids repeat from run to run. *)
let fresh_telemetry ~seed =
  Ftr_obs.Flag.set_mode true;
  Ftr_obs.Metrics.reset Ftr_obs.Metrics.default;
  Ftr_obs.Span.reset ();
  Ftr_obs.Events.reset ();
  Ftr_obs.Tracing.reset ();
  Ftr_obs.Tracing.set_seed seed

type problems = { fail : 'a. ('a, unit, string, unit) format4 -> 'a }

(* A [--selfcheck] run: [body] reports each broken contract through
   [fail]. None prints [passed]; any are listed on stderr, and the exit
   status is 1. *)
let run_selfcheck name ~passed body =
  let found = ref [] in
  body { fail = (fun fmt -> Printf.ksprintf (fun m -> found := m :: !found) fmt) };
  match List.rev !found with
  | [] -> print_endline passed
  | ps ->
      List.iter (Printf.eprintf "%s selfcheck: %s\n" name) ps;
      exit 1

(* route *)

let route_cmd =
  let run n links seed src dst fraction strategy json =
    let links = resolve_links n links in
    let rng = Rng.of_int seed in
    let net, failures, live_guard = ideal_with_failures ~n ~links ~fraction rng in
    let src = ((src mod n) + n) mod n and dst = ((dst mod n) + n) mod n in
    if not (live_guard src && live_guard dst) then
      if json then
        print_endline
          (Ftr_obs.Json.to_string
             (Ftr_obs.Json.Obj
                [ ("error", Ftr_obs.Json.String "endpoint fell in the failed set") ]))
      else print_endline "an endpoint fell in the failed set; rerun with another --seed"
    else begin
      let outcome, path = Route.route_path ~failures ~strategy ~rng net ~src ~dst in
      if json then begin
        let open Ftr_obs.Json in
        let extra =
          match outcome with
          | Route.Delivered _ -> []
          | Route.Failed { stuck_at; reason; _ } ->
              [ ("stuck_at", Int stuck_at); ("reason", String (Route.reason_label reason)) ]
        in
        print_endline
          (to_string
             (Obj
                ([
                   ("delivered", Bool (Route.delivered outcome));
                   ("hops", Int (Route.hops outcome));
                   ("loop_erased", Int (Route.loop_erased_length path));
                   ("path", List (List.map (fun v -> Int v) path));
                 ]
                @ extra)))
      end
      else begin
        (match outcome with
        | Route.Delivered { hops } ->
            Printf.printf "delivered in %d hops (loop-erased path: %d)\n" hops
              (Route.loop_erased_length path)
        | Route.Failed { hops; stuck_at; _ } ->
            Printf.printf "FAILED after %d hops, stuck at node %d\n" hops stuck_at);
        Printf.printf "route: %s\n" (String.concat " -> " (List.map string_of_int path))
      end
    end
  in
  let src_t = Arg.(value & opt int 0 & info [ "src" ] ~docv:"SRC" ~doc:"Source node.") in
  let dst_t = Arg.(value & opt int (-1) & info [ "dst" ] ~docv:"DST" ~doc:"Destination node.") in
  Cmd.v
    (Cmd.info "route" ~doc:"Route one message and print the route it took")
    Term.(
      const run $ n_t 4096 $ links_t $ seed_t $ src_t $ dst_t $ fail_t 0.0 $ strategy_t $ json_t)

(* explain *)

let explain_cmd =
  let run n links seed fraction strategy route_ix jobs json chrome_path =
    if route_ix < 0 then begin
      Printf.eprintf "p2psim explain: --route must be non-negative\n";
      exit 2
    end;
    let links = resolve_links n links in
    (* The flight recorder forced on. Trace identity derives from (seed,
       route index) — no clocks, no worker identity — so the rendered
       trace is byte-identical on re-runs and across --jobs counts. *)
    fresh_telemetry ~seed;
    Ftr_obs.Tracing.force_full true;
    let net, failures, alive = ideal_with_failures ~n ~links ~fraction (Rng.of_int seed) in
    (* Route [i]'s endpoints and recovery randomness are a pure function
       of (seed, i) through the sweep derivation scheme (Seed.rng_for),
       so route K is the same route whether the preceding routes replayed
       on one worker domain or four. *)
    let route_one index =
      let rng = Ftr_exec.Seed.rng_for ~seed ~index in
      let rec pick tries =
        if tries > 100_000 then
          failwith "explain: found no live endpoint pair; lower --fail or change --seed"
        else begin
          let src = Rng.int rng n and dst = Rng.int rng n in
          if src <> dst && alive src && alive dst then (src, dst) else pick (tries + 1)
        end
      in
      let src, dst = pick 0 in
      (src, dst, Route.route ~failures ~strategy ~rng net ~src ~dst)
    in
    (* Routes 0..K-1 replay with recording off: worker domains suppress
       telemetry anyway, and the coordinator must match them so the route
       under the microscope is the only trace in the ring wherever the
       warmups ran. *)
    Ftr_obs.Tracing.set_recording false;
    let warm = Ftr_exec.Pool.map ?jobs ~count:route_ix (fun i -> route_one i) in
    let warm_delivered =
      Array.fold_left (fun acc (_, _, o) -> if Route.delivered o then acc + 1 else acc) 0 warm
    in
    Ftr_obs.Tracing.set_recording true;
    Ftr_obs.Tracing.set_next_index route_ix;
    let src, dst, _outcome = route_one route_ix in
    match Ftr_obs.Tracing.latest () with
    | None ->
        Printf.eprintf "p2psim explain: no trace was recorded\n";
        exit 1
    | Some tr ->
        (match chrome_path with
        | Some path ->
            Out_channel.with_open_text path (fun oc ->
                output_string oc (Ftr_obs.Tracing.chrome_trace_string ~traces:[ tr ] ());
                output_char oc '\n')
        | None -> ());
        if json then print_endline (Ftr_obs.Json.to_string (Ftr_obs.Tracing.to_json tr))
        else begin
          if route_ix > 0 then
            Printf.printf "warmup: routes 0..%d replayed untraced, %d delivered, %d failed\n"
              (route_ix - 1) warm_delivered (route_ix - warm_delivered);
          Printf.printf "route #%d: %d -> %d under %.0f%% node failures\n" route_ix src dst
            (100.0 *. fraction);
          print_string (Ftr_obs.Tracing.render tr)
        end
  in
  let route_t =
    Arg.(
      value & opt int 0
      & info [ "route" ] ~docv:"K"
          ~doc:
            "Route index to explain: routes 0..K-1 replay untraced, then route K runs with \
             full-fidelity tracing.")
  in
  let chrome_t =
    Arg.(
      value
      & opt (some string) None
      & info [ "chrome" ] ~docv:"PATH"
          ~doc:"Also write the trace as Chrome trace-event JSON (chrome://tracing, Perfetto).")
  in
  Cmd.v
    (Cmd.info "explain"
       ~doc:"Re-run one route with the flight recorder forced on and print why it went the way \
             it did"
       ~man:
         [
           `S Manpage.s_description;
           `P
             "Replays a seeded routing workload up to route $(b,K), then routes pair K with \
              full-fidelity tracing: every candidate neighbour scanned, its distance, the \
              verdict that excluded it (dead link, dead node, already tried, not closer), the \
              chosen edges, and every backtrack or reroute. Output is deterministic: the same \
              seed prints the same bytes whatever $(b,--jobs) is.";
         ])
    Term.(
      const run $ n_t 4096 $ links_t $ seed_t $ fail_t 0.3 $ strategy_t $ route_t
      $ jobs_t ~doc:"Worker domains for the warmup replay (never changes the output)."
      $ json_t $ chrome_t)

(* figure5 *)

let figure5_cmd =
  let run n links seed networks oldest =
    let links = resolve_links n links in
    let replacement =
      if oldest then Ftr_core.Heuristic.Oldest else Ftr_core.Heuristic.Proportional
    in
    let r = E.figure5 ~replacement ~networks ~n ~links ~seed () in
    Printf.printf "%10s %12s %12s %12s\n" "length" "derived" "ideal" "error";
    List.iter
      (fun p -> Printf.printf "%10d %12.6f %12.6f %+12.6f\n" p.E.length p.E.derived p.E.ideal p.E.error)
      r.E.points;
    Printf.printf "max |error| = %.4f at length %d; total variation = %.4f\n" r.E.max_abs_error
      r.E.max_abs_error_length r.E.total_variation
  in
  let oldest_t =
    Arg.(value & flag & info [ "oldest" ] ~doc:"Use the oldest-link replacement strategy.")
  in
  Cmd.v
    (Cmd.info "figure5" ~doc:"Heuristic link-length distribution vs the ideal 1/d law")
    Term.(const run $ n_t 4096 $ links_t $ seed_t $ networks_t 3 $ oldest_t)

(* figure6 *)

let figure6_cmd =
  let run n links seed networks messages =
    let links = resolve_links n links in
    Printf.printf "%8s | %18s | %18s | %26s\n" "p" "terminate" "re-route" "backtrack(5)";
    Printf.printf "%8s | %8s %9s | %8s %9s | %8s %9s %7s\n" "" "failed" "hops" "failed" "hops"
      "failed" "hops" "path";
    List.iter
      (fun r ->
        Printf.printf "%8.2f | %8.4f %9.2f | %8.4f %9.2f | %8.4f %9.2f %7.2f\n" r.E.fail_fraction
          r.E.terminate.E.failed_fraction r.E.terminate.E.mean_hops
          r.E.reroute.E.failed_fraction r.E.reroute.E.mean_hops
          r.E.backtrack.E.failed_fraction r.E.backtrack.E.mean_hops
          r.E.backtrack.E.mean_path_hops)
      (E.figure6 ~n ~links ~networks ~messages ~seed ())
  in
  Cmd.v
    (Cmd.info "figure6" ~doc:"Failure strategies under a sweep of node-failure fractions")
    Term.(const run $ n_t (1 lsl 14) $ links_t $ seed_t $ networks_t 3 $ messages_t 300)

(* figure7 *)

let figure7_cmd =
  let run n links seed networks messages =
    let links = resolve_links n links in
    Printf.printf "%12s %14s %18s\n" "p(node fail)" "ideal failed" "constructed failed";
    List.iter
      (fun r -> Printf.printf "%12.2f %14.4f %18.4f\n" r.E.death_p r.E.ideal_failed r.E.constructed_failed)
      (E.figure7 ~n ~links ~networks ~messages ~seed ())
  in
  Cmd.v
    (Cmd.info "figure7" ~doc:"Ideal vs heuristically constructed network under failures")
    Term.(const run $ n_t 4096 $ links_t $ seed_t $ networks_t 3 $ messages_t 300)

(* table1 *)

let table1_cmd =
  let run n seed networks messages json =
    let ns = [ n / 64; n / 16; n / 4; n ] in
    let sections =
      [
        ("Theorem 12 (1 link)", E.sweep_single_link ~ns ~networks ~messages ~seed ());
        ( "Theorem 13 (l links)",
          E.sweep_multi_link ~n ~links_list:[ 1; 2; 4; 8 ] ~networks ~messages ~seed () );
        ("Theorem 14 (deterministic)", E.sweep_deterministic ~ns ~base:2 ~messages ~seed ());
        ( "Theorem 15 (link failures)",
          E.sweep_link_failure ~n ~probs:[ 1.0; 0.6; 0.2 ] ~networks ~messages ~seed () );
        ( "Theorem 16 (geometric links)",
          E.sweep_geometric_link_failure ~n ~base:2 ~probs:[ 1.0; 0.6 ] ~networks ~messages
            ~seed () );
        ( "Theorem 17 (binomial nodes)",
          E.sweep_binomial_nodes ~n ~probs:[ 1.0; 0.5 ] ~networks ~messages ~seed () );
        ( "Theorem 18 (node failures)",
          E.sweep_node_failure ~n ~probs:[ 0.0; 0.3; 0.6 ] ~networks ~messages ~seed () );
        ("Theorem 10 (lower bound)", E.sweep_lower_bound ~ns ~links:3 ~trials:300 ~seed ());
      ]
    in
    if json then begin
      let open Ftr_obs.Json in
      let row r =
        Obj
          [
            ("label", String r.E.label);
            ("parameter", Float r.E.parameter);
            ("measured", Float r.E.measured);
            ("bound", Float r.E.bound);
            ("ratio", Float r.E.ratio);
          ]
      in
      print_endline
        (to_string
           (List
              (List.map
                 (fun (header, rows) ->
                   Obj [ ("section", String header); ("rows", List (List.map row rows)) ])
                 sections)))
    end
    else
      List.iter
        (fun (header, rows) ->
          Printf.printf "\n-- %s --\n%24s %12s %12s %12s %8s\n" header "row" "param" "measured"
            "bound" "ratio";
          List.iter
            (fun r ->
              Printf.printf "%24s %12.3f %12.2f %12.2f %8.3f\n" r.E.label r.E.parameter
                r.E.measured r.E.bound r.E.ratio)
            rows)
        sections
  in
  Cmd.v
    (Cmd.info "table1" ~doc:"Every Table 1 bound against simulation")
    Term.(const run $ n_t (1 lsl 14) $ seed_t $ networks_t 3 $ messages_t 200 $ json_t)

(* adversary *)

let adversary_cmd =
  let run n seed trials =
    let r = Ftr_core.Adversary.isolation_experiment ~n ~trials ~seed () in
    Printf.printf "adversary budget: %d kills (the structural positions target±2^i)\n"
      r.Ftr_core.Adversary.kills;
    Printf.printf "geometric (Theorem 16) network: %6.4f of searches to the target fail\n"
      r.Ftr_core.Adversary.geometric_failed;
    Printf.printf "randomized 1/d network:         %6.4f of searches to the target fail\n"
      r.Ftr_core.Adversary.random_failed
  in
  let trials_t =
    Arg.(value & opt int 100 & info [ "trials" ] ~docv:"T" ~doc:"Random targets to attack.")
  in
  Cmd.v
    (Cmd.info "adversary"
       ~doc:"Targeted failures (Section 4.3.4.2): deterministic vs random links")
    Term.(const run $ n_t 4096 $ seed_t $ trials_t)

(* byzantine *)

let byzantine_cmd =
  let run n seed networks messages =
    Printf.printf "%10s %12s %12s %12s %14s\n" "byzantine" "naive" "retry" "backtrack"
      "wasted/search";
    List.iter
      (fun r ->
        Printf.printf "%10.2f %12.4f %12.4f %12.4f %14.2f\n"
          r.Ftr_core.Byzantine.byzantine_fraction r.Ftr_core.Byzantine.naive_failed
          r.Ftr_core.Byzantine.retry_failed r.Ftr_core.Byzantine.backtrack_failed
          r.Ftr_core.Byzantine.retry_wasted)
      (Ftr_core.Byzantine.sweep ~n ~networks ~messages ~seed ())
  in
  Cmd.v
    (Cmd.info "byzantine" ~doc:"Blackhole adversary sweep with three defences")
    Term.(const run $ n_t 4096 $ seed_t $ networks_t 3 $ messages_t 150)

(* recovery *)

let recovery_cmd =
  let run n seed kill samples =
    let r =
      Ftr_p2p.Recovery.run ~line_size:n ~kill_fraction:kill ~samples ~seed ()
    in
    Printf.printf "killed %d of %d nodes at t=0\n" r.Ftr_p2p.Recovery.killed
      r.Ftr_p2p.Recovery.initial_nodes;
    Printf.printf "%8s %10s %18s %10s %10s\n" "time" "success" "probes/lookup" "hops" "repairs";
    List.iter
      (fun sm ->
        Printf.printf "%8.0f %10.3f %18.2f %10.2f %10d\n" sm.Ftr_p2p.Recovery.time
          sm.Ftr_p2p.Recovery.success_rate sm.Ftr_p2p.Recovery.probes_per_lookup
          sm.Ftr_p2p.Recovery.mean_hops sm.Ftr_p2p.Recovery.repairs_so_far)
      r.Ftr_p2p.Recovery.samples
  in
  let kill_t =
    Arg.(value & opt float 0.3 & info [ "kill" ] ~docv:"P" ~doc:"Fraction crashed at t=0.")
  in
  let samples_t =
    Arg.(value & opt int 10 & info [ "samples" ] ~docv:"K" ~doc:"Recovery curve samples.")
  in
  Cmd.v
    (Cmd.info "recovery" ~doc:"Self-healing curve after a mass crash")
    Term.(const run $ n_t 4096 $ seed_t $ kill_t $ samples_t)

(* anatomy *)

let anatomy_cmd =
  let run n links seed =
    let links = resolve_links n links in
    let rng = Rng.of_int seed in
    Printf.printf "%26s %8s %8s %10s %9s %8s %8s %10s\n" "network" "out" "in(max)" "hotspot"
      "med.len" "p90" "p99" "boundary";
    List.iter
      (fun (name, net) ->
        let a = Ftr_core.Network_stats.anatomy net in
        Printf.printf "%26s %8.1f %8d %9.1fx %9.0f %8.0f %8.0f %9.2fx\n" name
          a.Ftr_core.Network_stats.mean_out_degree a.Ftr_core.Network_stats.max_in_degree
          a.Ftr_core.Network_stats.in_degree_hotspot a.Ftr_core.Network_stats.median_length
          a.Ftr_core.Network_stats.p90_length a.Ftr_core.Network_stats.p99_length
          a.Ftr_core.Network_stats.boundary_distortion)
      [
        ("ideal 1/d line", Network.build_ideal ~n ~links (Rng.split rng));
        ("ideal 1/d circle", Network.build_ring ~n ~links (Rng.split rng));
        ("heuristic construction", Ftr_core.Heuristic.build ~n ~links (Rng.split rng));
        ("geometric base-2", Network.build_geometric ~n ~base:2);
        ("chord-like", Network.build_chordlike ~n ());
      ]
  in
  Cmd.v
    (Cmd.info "anatomy" ~doc:"Structural statistics of every network builder")
    Term.(const run $ n_t 4096 $ links_t $ seed_t)

(* dht *)

let dht_cmd =
  let run n links seed replicas fraction requests =
    let links = resolve_links n links in
    let rng = Rng.of_int seed in
    let net, failures, _ = ideal_with_failures ~n ~links ~fraction rng in
    let store = Ftr_dht.Store.create ~replicas net in
    let w = Ftr_dht.Workload.create ~universe:(max 10 (n / 8)) () in
    Array.iter (fun k -> Ftr_dht.Store.put store ~key:k ~value:"v") (Ftr_dht.Workload.keys w);
    let report =
      Ftr_dht.Workload.measure_load ~failures
        ~strategy:(Route.Backtrack { history = 5 })
        ~store ~requests w rng
    in
    Printf.printf "universe %d keys, %d replicas, %d Zipf-popular requests, %.0f%% nodes dead\n"
      (Ftr_dht.Workload.universe w) replicas requests (100.0 *. fraction);
    Printf.printf "hit rate          %8.4f\n" report.Ftr_dht.Workload.hit_rate;
    Printf.printf "mean hops         %8.2f\n" report.Ftr_dht.Workload.mean_hops;
    Printf.printf "serving hotspot   %8.1fx the mean serving load\n"
      report.Ftr_dht.Workload.serve_max_over_mean;
    Printf.printf "forwarding hotspot%8.1fx the mean forwarding load\n"
      report.Ftr_dht.Workload.forward_max_over_mean
  in
  let replicas_t =
    Arg.(value & opt int 3 & info [ "replicas" ] ~docv:"R" ~doc:"Salted replica count.")
  in
  let requests_t =
    Arg.(value & opt int 1000 & info [ "requests" ] ~docv:"Q" ~doc:"Zipf-popular requests.")
  in
  Cmd.v
    (Cmd.info "dht" ~doc:"Resource layer under a Zipf workload, with failures")
    Term.(const run $ n_t 4096 $ links_t $ seed_t $ replicas_t $ fail_t 0.0 $ requests_t)

(* churn *)

let churn_cmd =
  let run line_size links seed duration initial =
    let links = resolve_links line_size (Some links) in
    let report =
      Ftr_p2p.Churn.run
        ~config:
          {
            Ftr_p2p.Churn.duration;
            join_rate = 0.05;
            crash_rate = 0.03;
            leave_rate = 0.02;
            lookup_rate = 2.0;
            min_nodes = 8;
          }
        ~seed ~line_size ~initial_nodes:initial ~links ()
    in
    let r = report in
    Printf.printf "final live nodes     %8d\n" r.Ftr_p2p.Churn.final_nodes;
    Printf.printf "joins/crashes/leaves %8d / %d / %d\n" r.Ftr_p2p.Churn.joins
      r.Ftr_p2p.Churn.crashes r.Ftr_p2p.Churn.leaves;
    Printf.printf "lookups (user)       %8d, success %.4f, mean hops %.2f\n"
      r.Ftr_p2p.Churn.lookups_issued r.Ftr_p2p.Churn.success_rate r.Ftr_p2p.Churn.mean_hops;
    Printf.printf "messages/probes/repairs %5d / %d / %d\n" r.Ftr_p2p.Churn.messages
      r.Ftr_p2p.Churn.probes r.Ftr_p2p.Churn.repairs
  in
  let duration_t =
    Arg.(value & opt float 1000.0 & info [ "duration" ] ~docv:"T" ~doc:"Virtual-time horizon.")
  in
  let links_t = Arg.(value & opt int 8 & info [ "links" ] ~docv:"L" ~doc:"Long links per node.") in
  let initial_t =
    Arg.(value & opt int 128 & info [ "initial" ] ~docv:"I" ~doc:"Initial population.")
  in
  Cmd.v
    (Cmd.info "churn" ~doc:"Run the dynamic protocol under churn and report")
    Term.(const run $ n_t 1024 $ links_t $ seed_t $ duration_t $ initial_t)

(* report *)

let report_cmd =
  let run n links seed json prometheus events_path traces selfcheck =
    (* The telemetry layer is the point of this subcommand: forced on
       regardless of FTR_OBS, so the snapshot reflects exactly the
       workload below. *)
    fresh_telemetry ~seed;
    let links = resolve_links n links in
    let (), jsonl =
      Ftr_obs.Events.with_buffer @@ fun () ->
      let rng = Rng.of_int seed in
      (* A representative slice of the simulator: an ideal network routed
         under 20% node failures with backtracking (route + network
         metrics), a short churn run (engine, overlay and heap metrics),
         a replicated store workload (hit/miss counters) and a small
         heuristic construction (basin/redirect counters). *)
      let net, failures, alive = ideal_with_failures ~n ~links ~fraction:0.2 rng in
      let routed = ref 0 in
      while !routed < 200 do
        let src = Rng.int rng n and dst = Rng.int rng n in
        if src <> dst && alive src && alive dst then begin
          incr routed;
          ignore
            (Route.route ~failures ~strategy:(Route.Backtrack { history = 5 }) ~rng net ~src
               ~dst)
        end
      done;
      ignore
        (Ftr_p2p.Churn.run
           ~config:
             {
               Ftr_p2p.Churn.duration = 200.0;
               join_rate = 0.05;
               crash_rate = 0.03;
               leave_rate = 0.02;
               lookup_rate = 1.0;
               min_nodes = 8;
             }
           ~seed ~line_size:(max 256 (n / 4)) ~initial_nodes:64 ~links:(max 1 (min links 4)) ());
      let store = Ftr_dht.Store.create ~replicas:2 net in
      for i = 1 to 64 do
        Ftr_dht.Store.put store ~key:(Printf.sprintf "key-%d" i) ~value:(string_of_int i)
      done;
      (* A third of the gets miss, so both result labels show up. *)
      for i = 1 to 96 do
        ignore (Ftr_dht.Store.get store ~key:(Printf.sprintf "key-%d" i))
      done;
      ignore (Ftr_core.Heuristic.build ~n:(min n 512) ~links:(max 1 (min links 4)) rng)
    in
    (match events_path with
    | Some path ->
        let oc = open_out path in
        output_string oc jsonl;
        close_out oc
    | None -> ());
    if selfcheck then begin
      run_selfcheck "report" ~passed:"report selfcheck passed" @@ fun { fail } ->
      let lines =
        List.filter (fun l -> not (String.equal l "")) (String.split_on_char '\n' jsonl)
      in
      if lines = [] then fail "no events were emitted";
      List.iter
        (fun line ->
          match Ftr_obs.Json.parse_opt line with
          | Some (Ftr_obs.Json.Obj _) -> ()
          | Some _ -> fail "event line is not a JSON object: %s" line
          | None -> fail "malformed JSONL line: %s" line)
        lines;
      if Ftr_obs.Metrics.size () = 0 then fail "metrics registry is empty";
      let hops_count =
        List.fold_left
          (fun acc it ->
            match it.Ftr_obs.Metrics.item_view with
            | Ftr_obs.Metrics.Histogram_view hv
              when String.equal it.Ftr_obs.Metrics.item_name "route_hops" ->
                acc + hv.Ftr_obs.Metrics.h_count
            | _ -> acc)
          0
          (Ftr_obs.Metrics.snapshot ())
      in
      if hops_count = 0 then fail "route_hops histogram recorded no observations";
      (match Ftr_obs.Span.find "engine.run" with
      | Some s when s.Ftr_obs.Span.count > 0 -> ()
      | Some _ | None -> fail "no engine.run span was timed");
      (* Flight recorder: traces were recorded, memory stayed bounded
         (ring, pins and per-trace step caps), and the Chrome export
         parses as a JSON object. *)
      let ring_cap = !Ftr_obs.Tracing.ring_capacity
      and pin_cap = !Ftr_obs.Tracing.pin_capacity
      and step_cap = !Ftr_obs.Tracing.max_steps in
      if Ftr_obs.Tracing.completed () = 0 then fail "flight recorder completed no traces";
      if Ftr_obs.Tracing.retained_count () > ring_cap then
        fail "flight recorder ring holds %d traces, past its capacity %d"
          (Ftr_obs.Tracing.retained_count ()) ring_cap;
      if Ftr_obs.Tracing.pinned_count () > pin_cap then
        fail "flight recorder pinned %d traces, past its capacity %d"
          (Ftr_obs.Tracing.pinned_count ()) pin_cap;
      if Ftr_obs.Tracing.completed () > ring_cap && Ftr_obs.Tracing.evicted () = 0 then
        fail "ring overflow recorded no evictions";
      List.iter
        (fun tr ->
          if Ftr_obs.Tracing.step_count tr > step_cap then
            fail "trace %s holds %d steps, past the cap %d" (Ftr_obs.Tracing.id_hex tr)
              (Ftr_obs.Tracing.step_count tr) step_cap)
        (Ftr_obs.Tracing.retained_traces () @ Ftr_obs.Tracing.pinned_traces ());
      (match Ftr_obs.Json.parse_opt (Ftr_obs.Tracing.chrome_trace_string ()) with
      | Some (Ftr_obs.Json.Obj fields) ->
          if not (List.mem_assoc "traceEvents" fields) then
            fail "chrome trace export lacks a traceEvents field"
      | Some _ | None -> fail "chrome trace export did not parse as a JSON object");
      (* Zero overhead when off: with FTR_OBS disabled, a long scratch
         route must stay allocation-free — the same minor-words budget
         the CSR tests enforce. *)
      Ftr_obs.Flag.set_mode false;
      let line = Network.build_ideal ~n:4096 ~links:0 (Rng.of_int seed) in
      let scratch = Route.scratch line in
      ignore (Route.route ~scratch line ~src:0 ~dst:1);
      let before = Gc.minor_words () in
      ignore (Route.route ~scratch line ~src:0 ~dst:4095);
      let delta = Gc.minor_words () -. before in
      Ftr_obs.Flag.set_mode true;
      if delta > 512.0 then
        fail "a 4095-hop route with telemetry off allocated %.0f minor words" delta
    end
    else if json && traces then
      (* Flight-recorder focus: the retained ring and the pinned failures
         as structured traces, ready for jq or the Chrome converter. *)
      print_endline
        (Ftr_obs.Json.to_string
           (Ftr_obs.Json.Obj
              [
                ( "traces",
                  Ftr_obs.Json.List
                    (List.map Ftr_obs.Tracing.to_json (Ftr_obs.Tracing.retained_traces ())) );
                ( "pinned",
                  Ftr_obs.Json.List
                    (List.map Ftr_obs.Tracing.to_json (Ftr_obs.Tracing.pinned_traces ())) );
              ]))
    else if json then print_endline (Ftr_obs.Json.to_string (Ftr_obs.Export.json_snapshot ()))
    else if prometheus then print_string (Ftr_obs.Export.prometheus ())
    else begin
      print_string (Ftr_obs.Export.text_report ());
      if traces then begin
        Printf.printf
          "\nflight recorder: %d routes traced, %d retained, %d pinned failures, %d evicted\n"
          (Ftr_obs.Tracing.completed ())
          (Ftr_obs.Tracing.retained_count ())
          (Ftr_obs.Tracing.pinned_count ())
          (Ftr_obs.Tracing.evicted ());
        List.iter
          (fun tr ->
            print_newline ();
            print_string (Ftr_obs.Tracing.render tr))
          (Ftr_obs.Tracing.pinned_traces ())
      end;
      Printf.printf "\nevents: %d emitted, %d suppressed%s\n" (Ftr_obs.Events.emitted ())
        (Ftr_obs.Events.suppressed ())
        (match events_path with Some p -> Printf.sprintf " (written to %s)" p | None -> "")
    end
  in
  let prometheus_t =
    Arg.(
      value & flag
      & info [ "prometheus" ] ~doc:"Emit the snapshot in the Prometheus text exposition format.")
  in
  let events_t =
    Arg.(
      value
      & opt (some string) None
      & info [ "events" ] ~docv:"PATH" ~doc:"Write the structured JSONL event stream to PATH.")
  in
  let traces_t =
    Arg.(
      value & flag
      & info [ "traces" ]
          ~doc:
            "Also print the flight recorder: retained/pinned counts and the full hop tree of \
             every pinned (failed) route. With $(b,--json), emit the traces as structured \
             JSON instead of the metrics snapshot.")
  in
  let selfcheck_t =
    Arg.(
      value & flag
      & info [ "selfcheck" ]
          ~doc:
            "Validate the snapshot instead of printing it: every event line parses as a JSON \
             object, the registry is non-empty, route_hops has observations, an engine.run \
             span was timed, the flight recorder stayed within its ring/pin/step bounds, the \
             Chrome export parses, and a telemetry-off route allocates nothing. Exit 1 on any \
             violation.")
  in
  Cmd.v
    (Cmd.info "report"
       ~doc:"Run a representative workload with telemetry forced on and print the snapshot")
    Term.(
      const run $ n_t 1024 $ links_t $ seed_t $ json_t $ prometheus_t $ events_t $ traces_t
      $ selfcheck_t)

(* check *)

let check_cmd =
  let run n links seed verbose =
    (* The battery exercises every builder; the smallest ones (ring,
       deterministic) need a handful of nodes, so demand a sane floor
       instead of surfacing a raw Invalid_argument. *)
    if n < 16 then begin
      Printf.eprintf "p2psim check: --nodes must be at least 16 (got %d)\n" n;
      exit 2
    end;
    let links = resolve_links n links in
    (match links with
    | l when l < 0 ->
        Printf.eprintf "p2psim check: --links must be non-negative (got %d)\n" l;
        exit 2
    | _ -> ());
    let rng = Rng.of_int seed in
    let module Check = Ftr_check.Check in
    let total = ref 0 and sections = ref 0 in
    let report label vs =
      incr sections;
      total := !total + List.length vs;
      if vs <> [] || verbose then Format.printf "%a" (Check.pp_report ~label) vs
    in
    (* Static builders: structure, then goodness of fit to the 1/d law. *)
    let ideal = Network.build_ideal ~n ~links rng in
    report "ideal: structure" (Check.network ~expected_links:links ideal);
    report "ideal: csr frame" (Check.csr ideal);
    if links > 0 then report "ideal: 1/d law" (Check.network_gof ideal);
    let ring = Network.build_ring ~n ~links rng in
    report "ring: structure" (Check.network ring);
    report "ring: csr frame" (Check.csr ring);
    if links > 0 then report "ring: 1/d law" (Check.network_gof ring);
    let binom = Network.build_binomial ~n ~links ~present_p:0.7 rng in
    report "binomial: structure" (Check.network binom);
    report "binomial: csr frame" (Check.csr binom);
    let det = Network.build_deterministic ~n ~base:2 in
    report "deterministic: structure" (Check.network ~multi_edges:`Forbidden det);
    report "deterministic: csr frame" (Check.csr det);
    let geo = Network.build_geometric ~n ~base:2 in
    report "geometric: structure" (Check.network ~multi_edges:`Forbidden geo);
    report "geometric: csr frame" (Check.csr geo);
    let chord = Network.build_chordlike ~n () in
    report "chordlike: structure"
      (Check.network ~multi_edges:`Forbidden ~ring:Check.Successor_only chord);
    report "chordlike: csr frame" (Check.csr chord);
    (* The arrival heuristic needs at least one long link per node. *)
    if links > 0 then begin
      let heur = Ftr_core.Heuristic.build ~n ~links rng in
      report "heuristic: structure" (Check.network heur);
      report "heuristic: csr frame" (Check.csr heur);
      (* The arrival process only approximates the law (Figure 5 shows the
         residual bias), so the heuristic gets looser thresholds. *)
      report "heuristic: 1/d law"
        (Check.network_gof ~ks_threshold:0.1 ~chi2_per_dof:25.0 heur)
    end;
    (* Route traces over every strategy, healthy and under failures. *)
    let trace_battery label ?failures ~side ~strategy net =
      let vs = ref [] in
      let alive v =
        match failures with None -> true | Some f -> Ftr_core.Failure.node_alive f v
      in
      let size = Network.size net in
      let tried = ref 0 in
      while !tried < 40 do
        let src = Rng.int rng size and dst = Rng.int rng size in
        if src <> dst && alive src && alive dst then begin
          incr tried;
          let _, v = Check.route_and_check ?failures ~side ~strategy ~rng net ~src ~dst in
          vs := !vs @ v
        end
      done;
      report label !vs
    in
    trace_battery "trace: two-sided greedy" ~side:Route.Two_sided ~strategy:Route.Terminate
      ideal;
    trace_battery "trace: one-sided greedy" ~side:Route.One_sided ~strategy:Route.Terminate
      ideal;
    trace_battery "trace: one-sided on the circle" ~side:Route.One_sided
      ~strategy:Route.Terminate ring;
    let mask = Ftr_core.Failure.random_node_fraction rng ~n ~fraction:0.2 in
    let failures = Ftr_core.Failure.of_node_mask mask in
    trace_battery "trace: reroute under failures" ~failures ~side:Route.Two_sided
      ~strategy:(Route.Random_reroute { attempts = 3 })
      ideal;
    trace_battery "trace: backtrack under failures" ~failures ~side:Route.Two_sided
      ~strategy:(Route.Backtrack { history = 5 })
      ideal;
    (* Heap on its own, then the engine mid-run and the overlay at
       quiescence (populate + joins + lookups, run to empty). *)
    let h = Ftr_sim.Heap.create ~compare:Int.compare in
    for _ = 1 to 512 do
      Ftr_sim.Heap.push h (Rng.int rng 10_000)
    done;
    for _ = 1 to 256 do
      ignore (Ftr_sim.Heap.pop h)
    done;
    report "heap: push/pop order" (Check.heap h);
    let engine = Ftr_sim.Engine.create () in
    (* The dynamic protocol keeps at least one long link per node. *)
    let ov = Ftr_p2p.Overlay.create ~line_size:n ~links:(max 1 links) ~rng engine in
    let m = min 256 (n / 2) in
    let stride = n / m in
    Ftr_p2p.Overlay.populate ov ~positions:(List.init m (fun i -> i * stride));
    for i = 0 to (m / 4) - 1 do
      let pos = (i * stride) + (stride / 2) + 1 in
      if pos < n && not (Ftr_p2p.Overlay.is_alive ov pos) then
        Ftr_p2p.Overlay.join ov ~pos ~via:(Rng.int rng m * stride)
    done;
    for _ = 1 to 64 do
      Ftr_p2p.Overlay.lookup ov ~from:(Rng.int rng m * stride) ~target:(Rng.int rng n) ()
    done;
    Ftr_sim.Engine.run ~max_events:200 engine;
    report "engine: mid-run queue" (Check.engine engine);
    Ftr_sim.Engine.run engine;
    report "overlay: quiescent ring" (Check.overlay ~strict_ring:true ov);
    (* DHT store over the ideal network, fully replicated. *)
    let st = Ftr_dht.Store.create ~replicas:3 ideal in
    for i = 1 to 256 do
      Ftr_dht.Store.put st ~key:(Printf.sprintf "key-%d" i) ~value:(string_of_int i)
    done;
    report "store: key placement" (Check.store ~complete:true st);
    (* Exec subsystem: merged sweep results must not depend on the worker
       count, and per-job streams must be distinct and root-free. *)
    report "exec: deterministic merge" (Check.exec ~seed ());
    (* Snapshot subsystem: save/load round-trip fidelity in both mmap and
       copy modes, plus rejection of every corrupted-file variant. *)
    report "snapshot: round-trip" (Check.snapshot ~seed ());
    (* Service subsystem: a churny serve run must leave conservation,
       ring sanity and every mailbox invariant intact. *)
    let svc_cfg =
      {
        Ftr_svc.Driver.default_config with
        Ftr_svc.Driver.line_size = max 256 (min n 1024);
        initial = 32;
        links = max 1 (min links 4);
        seed;
        ticks = 16;
        rate = 4;
        join_rate = 0.5;
        crash_rate = 0.5;
        leave_rate = 0.25;
        stabilize = 1;
      }
    in
    let svc_res = Ftr_svc.Driver.run svc_cfg in
    report "service: post-churn invariants"
      (Check.service svc_res.Ftr_svc.Driver.res_service);
    let mb = Ftr_svc.Mailbox.create ~capacity:4 ~owner:0 () in
    List.iter
      (fun (time, src, seq) -> ignore (Ftr_svc.Mailbox.post mb ~time ~src ~seq ()))
      [ (3, 1, 0); (1, 2, 0); (1, 1, 1); (2, 0, 0); (9, 9, 9) ];
    report "service: mailbox discipline" (Check.mailbox mb);
    if !total = 0 then
      Printf.printf "all %d check sections passed (0 violations)\n" !sections
    else begin
      Printf.printf "%d violation(s) across %d sections\n" !total !sections;
      exit 1
    end
  in
  let verbose_t =
    Arg.(value & flag & info [ "verbose"; "v" ] ~doc:"Print every section, not just failures.")
  in
  Cmd.v
    (Cmd.info "check"
       ~doc:"Run the invariant sanitizer battery over builders, routes, simulator and DHT"
       ~man:
         [
           `S Manpage.s_description;
           `P
             "Runs every runtime invariant check (docs/CHECKING.md) against freshly built \
              networks, routes, the simulator and the DHT store. Exits 1 on any violation.";
           `P
             "Static properties are covered separately by the three-stage $(b,ftr_lint) \
              analyzer (docs/LINTING.md): $(b,dune build @lint) runs this battery, then \
              lints lib/, bin/ and bench/ syntactically for nondeterminism sources, \
              polymorphic comparison, hash-order output and hot-path allocation (R1-R3, \
              R5), runs the typed interprocedural stage \
              ($(b,@lint-typed), rules T1-T4) over the compiled .cmt files — a \
              call-graph analysis catching cross-function domain races reachable from \
              Ftr_exec.Pool worker jobs, transitive nondeterminism taint and typed \
              comparison hazards — and finally the flow-sensitive stage \
              ($(b,@lint-flow), rules D1-D4): per-function control-flow graphs and \
              typestate dataflow proving telemetry writes gated on every path, \
              resources released or validated on every path, message dispatches \
              exhaustive, and hot loops free of invariant flag reloads, with \
              incremental caching and deterministic parallel analysis. \
              $(b,@lint-tests) lints test/ under a relaxed profile.";
         ])
    Term.(const run $ n_t 1024 $ links_t $ seed_t $ verbose_t)

(* sweep *)

module Sweep = Ftr_exec.Sweep
module Json = Ftr_obs.Json
module Summary = Ftr_stats.Summary

(* The checkpoint codec renders floats by their IEEE-754 bit pattern so a
   resumed sweep decodes *exactly* what the interrupted run computed —
   Json.Float's %.12g rendering is lossy, and the resume acceptance test
   compares output byte for byte. NaN (mean hops when nothing was
   delivered) round-trips too. *)
let bits f = Json.String (Printf.sprintf "%Lx" (Int64.bits_of_float f))

let of_bits = function
  | Some (Json.String s) -> (
      match Int64.of_string_opt ("0x" ^ s) with
      | Some b -> Some (Int64.float_of_bits b)
      | None -> None)
  | Some _ | None -> None

let encode_measurement (m : E.measurement) =
  Json.Obj
    [
      ("failed", bits m.E.failed_fraction);
      ("hops", bits m.E.mean_hops);
      ("ci95", bits m.E.hops_ci95);
      ("path", bits m.E.mean_path_hops);
      ("messages", Json.Int m.E.messages);
    ]

let decode_measurement j =
  match
    ( of_bits (Json.member "failed" j),
      of_bits (Json.member "hops" j),
      of_bits (Json.member "ci95" j),
      of_bits (Json.member "path" j),
      Json.member "messages" j )
  with
  | Some failed_fraction, Some mean_hops, Some hops_ci95, Some mean_path_hops, Some (Json.Int messages)
    ->
      Some { E.failed_fraction; mean_hops; hops_ci95; mean_path_hops; messages }
  | _ -> None

let sweep_cmd =
  let run ns links_list fails networks messages strategy seed jobs checkpoint resume csv_path
      json selfcheck =
    if resume && checkpoint = None then begin
      Printf.eprintf "p2psim sweep: --resume needs --checkpoint FILE\n";
      exit 2
    end;
    let resolve n l = if l = 0 then int_of_float (Theory.lg n) else l in
    (* The grid is the job decomposition: (n, links, fail) points with the
       [networks] replicates as the innermost axis, so a point's replicates
       occupy consecutive job indices whatever the worker count. *)
    let points = Sweep.grid3 ns links_list fails in
    let sweep =
      Sweep.create
        ~run:(fun ~index:_ ~rng (n, links, fraction, _rep) ->
          let net, failures, _ = ideal_with_failures ~n ~links:(resolve n links) ~fraction rng in
          let pairs = E.random_live_pairs rng failures ~n ~messages in
          E.measure ~failures ~strategy ~pairs ~messages ~rng net)
        (Sweep.grid4 ns links_list fails (List.init networks Fun.id))
    in
    let run_plain ?jobs () = Sweep.run ?jobs ~seed sweep in
    let serialize rs =
      String.concat "\n" (Array.to_list (Array.map (fun m -> Json.to_string (encode_measurement m)) rs))
    in
    if selfcheck then begin
      (* The acceptance gate for the exec subsystem: the merged output must
         be byte-identical across worker counts and the sequential
         fallback, and resuming a truncated checkpoint must reproduce the
         uninterrupted run. *)
      run_selfcheck "sweep"
        ~passed:
          "sweep selfcheck passed (jobs=1/2/4, FTR_EXEC_SEQ=1 and checkpoint resume all \
           byte-identical)"
      @@ fun { fail } ->
      let reference = serialize (run_plain ~jobs:1 ()) in
      List.iter
        (fun jobs ->
          if serialize (run_plain ~jobs ()) <> reference then
            fail "jobs=%d output differs from the jobs=1 reference" jobs)
        [ 2; 4 ];
      if Ftr_exec.Pool.with_sequential_forced true (fun () -> serialize (run_plain ()) <> reference)
      then fail "FTR_EXEC_SEQ=1 output differs from the jobs=1 reference";
      let path = Filename.temp_file "ftr_sweep_selfcheck" ".jsonl" in
      let run_ck ~fresh =
        Sweep.run_checkpointed ~wave:2 ~fresh ~path ~seed ~encode:encode_measurement
          ~decode:decode_measurement sweep
      in
      if serialize (run_ck ~fresh:true) <> reference then
        fail "checkpointed output differs from the plain run";
      (* Simulate a kill mid-sweep: drop the journal's last two records,
         then resume. *)
      let lines = In_channel.with_open_text path In_channel.input_lines in
      let keep = max 1 (List.length lines - 2) in
      Out_channel.with_open_text path (fun oc ->
          List.iteri
            (fun i l ->
              if i < keep then begin
                output_string oc l;
                output_char oc '\n'
              end)
            lines);
      let resumed = serialize (run_ck ~fresh:false) in
      Sys.remove path;
      if resumed <> reference then fail "resume from a truncated checkpoint diverged"
    end
    else begin
      let results =
        match checkpoint with
        | Some path ->
            Sweep.run_checkpointed ?jobs ~fresh:(not resume) ~path ~seed
              ~encode:encode_measurement ~decode:decode_measurement sweep
        | None -> run_plain ?jobs ()
      in
      (* Replicates are consecutive (innermost axis), so folding slice
         [pi * networks, (pi+1) * networks) aggregates point [pi]. *)
      let rows =
        List.mapi
          (fun pi (n, links0, fraction) ->
            let failed = Summary.create () in
            let hops = Summary.create () in
            let path_s = Summary.create () in
            for k = 0 to networks - 1 do
              let m = results.((pi * networks) + k) in
              Summary.add failed m.E.failed_fraction;
              if not (Float.is_nan m.E.mean_hops) then begin
                Summary.add hops m.E.mean_hops;
                Summary.add path_s m.E.mean_path_hops
              end
            done;
            ( n,
              resolve n links0,
              fraction,
              Summary.mean failed,
              Summary.mean hops,
              Summary.mean path_s ))
          points
      in
      (match csv_path with
      | Some path ->
          let dir = Filename.dirname path in
          if not (String.equal dir "" || String.equal dir ".") then Ftr_stats.Csv.mkdir_p dir;
          Ftr_stats.Csv.write_file ~path
            ~header:[ "nodes"; "links"; "fail"; "failed"; "hops"; "path_hops" ]
            ~rows:
              (List.map
                 (fun (n, links, fraction, failed, hops, path) ->
                   Ftr_stats.Csv.
                     [
                       int_field n; int_field links; float_field fraction; float_field failed;
                       float_field hops; float_field path;
                     ])
                 rows);
          Printf.printf "wrote %s (%d rows, %d jobs)\n" path (List.length rows) (Sweep.size sweep)
      | None -> ());
      if json then begin
        let jf x = if Float.is_nan x then Json.String "nan" else Json.Float x in
        print_endline
          (Json.to_string
             (Json.List
                (List.map
                   (fun (n, links, fraction, failed, hops, path) ->
                     Json.Obj
                       [
                         ("nodes", Json.Int n);
                         ("links", Json.Int links);
                         ("fail", jf fraction);
                         ("failed", jf failed);
                         ("hops", jf hops);
                         ("path_hops", jf path);
                       ])
                   rows)))
      end
      else if csv_path = None then begin
        Printf.printf "%8s %6s %6s | %10s %10s %10s   (%d networks x %d messages per point)\n"
          "nodes" "links" "fail" "failed" "hops" "path" networks messages;
        List.iter
          (fun (n, links, fraction, failed, hops, path) ->
            Printf.printf "%8d %6d %6.2f | %10.4f %10.2f %10.2f\n" n links fraction failed hops
              path)
          rows
      end
    end
  in
  let ns_t =
    Arg.(
      value
      & opt (list nodes_conv) [ 1024 ]
      & info [ "nodes"; "n" ] ~docv:"N,..." ~doc:"Grid axis: node counts.")
  in
  let links_t =
    Arg.(
      value
      & opt (list int) [ 0 ]
      & info [ "links" ] ~docv:"L,..." ~doc:"Grid axis: long links per node (0 means lg N).")
  in
  let fails_t =
    Arg.(
      value
      & opt (list fraction_conv) [ 0.0 ]
      & info [ "fail" ] ~docv:"P,..." ~doc:"Grid axis: node-failure fractions.")
  in
  let checkpoint_t =
    Arg.(
      value
      & opt (some string) None
      & info [ "checkpoint" ] ~docv:"FILE"
          ~doc:"Journal completed jobs to FILE (JSONL) so the sweep survives a kill.")
  in
  let resume_t =
    Arg.(
      value & flag
      & info [ "resume" ]
          ~doc:
            "Resume from the --checkpoint journal: jobs already recorded are decoded, not \
             re-run. Without this flag an existing journal is overwritten.")
  in
  let csv_t =
    Arg.(
      value
      & opt (some string) None
      & info [ "csv" ] ~docv:"FILE" ~doc:"Write the aggregated rows to FILE as CSV.")
  in
  let selfcheck_t =
    Arg.(
      value & flag
      & info [ "selfcheck" ]
          ~doc:
            "Run the grid under jobs=1/2/4 and FTR_EXEC_SEQ=1, plus a truncated checkpoint \
             resume, and demand byte-identical output everywhere. Exit 1 on any divergence.")
  in
  Cmd.v
    (Cmd.info "sweep"
       ~doc:
         "Run a (nodes x links x fail) measurement grid on the multicore executor, \
          deterministically")
    Term.(
      const run $ ns_t $ links_t $ fails_t $ networks_t 3 $ messages_t 100 $ strategy_t $ seed_t
      $ jobs_t
          ~doc:
            "Worker domains (default: the recommended domain count; never changes the output, \
             only the wall clock)."
      $ checkpoint_t $ resume_t $ csv_t $ json_t $ selfcheck_t)

(* serve — the message-passing overlay service *)

let serve_cmd =
  let module D = Ftr_svc.Driver in
  let run nodes initial links seed ticks rate join_rate crash_rate leave_rate stabilize ttl jobs
      shards json transcript explain no_wall selfcheck =
    let links = resolve_links nodes links in
    if initial < 2 || initial > nodes then begin
      Printf.eprintf "p2psim serve: --initial must be in [2, nodes]\n";
      exit 2
    end;
    let cfg =
      {
        D.default_config with
        D.line_size = nodes;
        initial;
        links;
        seed;
        ticks;
        rate;
        join_rate;
        crash_rate;
        leave_rate;
        stabilize;
        ttl;
        jobs;
        shards;
        explain;
        record = transcript || selfcheck;
      }
    in
    if selfcheck then begin
      (* The acceptance gate for the service subsystem: the merged
         transcript and the deterministic report must be byte-identical
         across worker counts and the sequential fallback — including any
         mid-run churn the flags inject — and the structural invariants
         (request conservation, no mailbox overflow, clean drain) must
         hold. *)
      let cfg = { cfg with D.record = true; explain = None } in
      let serialize (res : D.result) =
        res.D.res_transcript
        ^ String.concat "\n" (D.report_lines ~wall:false res.D.res_report)
        ^ "\n"
      in
      run_selfcheck "serve"
        ~passed:
          "serve selfcheck passed (jobs=1/2/4 and FTR_EXEC_SEQ=1 transcripts byte-identical; \
           invariants hold)"
      @@ fun { fail } ->
      let ref_res = D.run { cfg with D.jobs = Some 1 } in
      let reference = serialize ref_res in
      List.iter
        (fun j ->
          if serialize (D.run { cfg with D.jobs = Some j }) <> reference then
            fail "jobs=%d transcript differs from the jobs=1 reference" j)
        [ 2; 4 ];
      if
        Ftr_exec.Pool.with_sequential_forced true (fun () ->
            serialize (D.run { cfg with D.jobs = None }) <> reference)
      then fail "FTR_EXEC_SEQ=1 transcript differs from the jobs=1 reference";
      List.iter (fun p -> fail "%s" p) (D.invariant_problems ref_res)
    end
    else begin
      (match explain with
      | Some _ ->
          (* Same forcing as [explain]: trace identity derives from (seed,
             request id), so the rendered trace is byte-identical across
             --jobs counts. *)
          fresh_telemetry ~seed;
          Ftr_obs.Tracing.force_full true
      | None -> ());
      let res = D.run cfg in
      if transcript then print_string res.D.res_transcript;
      (match explain with
      | Some k -> (
          match Ftr_obs.Tracing.latest () with
          | Some tr ->
              Printf.printf "request #%d as a multi-hop message exchange\n" k;
              print_string (Ftr_obs.Tracing.render tr)
          | None ->
              Printf.eprintf
                "p2psim serve: request #%d left no trace (is the id within --ticks x --rate?)\n"
                k;
              exit 1)
      | None -> ());
      if json then
        print_endline (Ftr_obs.Json.to_string (D.report_json ~wall:(not no_wall) res.D.res_report))
      else List.iter print_endline (D.report_lines ~wall:(not no_wall) res.D.res_report)
    end
  in
  let initial_t =
    Arg.(
      value & opt int 256
      & info [ "initial" ] ~docv:"K" ~doc:"Nodes populated before the service starts.")
  in
  let ticks_t =
    Arg.(
      value & opt int 64
      & info [ "ticks" ] ~docv:"T" ~doc:"Control horizon in logical ticks; draining adds rounds.")
  in
  let rate_t =
    Arg.(value & opt int 8 & info [ "rate" ] ~docv:"R" ~doc:"User lookups issued per tick.")
  in
  let join_rate_t =
    Arg.(
      value & opt float 0.0
      & info [ "join-rate" ] ~docv:"MEAN" ~doc:"Poisson mean of joins injected per tick.")
  in
  let crash_rate_t =
    Arg.(
      value & opt float 0.0
      & info [ "crash-rate" ] ~docv:"MEAN" ~doc:"Poisson mean of crashes injected per tick.")
  in
  let leave_rate_t =
    Arg.(
      value & opt float 0.0
      & info [ "leave-rate" ] ~docv:"MEAN"
          ~doc:"Poisson mean of graceful leaves injected per tick.")
  in
  let stabilize_t =
    Arg.(
      value & opt int 0
      & info [ "stabilize" ] ~docv:"K" ~doc:"Stabilization pulses issued per tick.")
  in
  let ttl_t =
    Arg.(value & opt int 256 & info [ "ttl" ] ~docv:"H" ~doc:"Lookup hop budget.")
  in
  let shards_t =
    Arg.(
      value & opt int 8
      & info [ "shards" ] ~docv:"S"
          ~doc:
            "Fixed shard count the due actors are cut into each round; part of the \
             deterministic schedule, independent of --jobs.")
  in
  let transcript_t =
    Arg.(
      value & flag
      & info [ "transcript" ] ~doc:"Print the merged per-message service transcript.")
  in
  let explain_t =
    Arg.(
      value
      & opt (some int) None
      & info [ "explain" ] ~docv:"K"
          ~doc:
            "Trace request K through the flight recorder and print its hop-by-hop story as a \
             message exchange.")
  in
  let no_wall_t =
    Arg.(
      value & flag
      & info [ "no-wall" ]
          ~doc:
            "Omit the wall-clock line from the report so the whole output is byte-reproducible \
             (what the @serve golden rule diffs).")
  in
  let selfcheck_t =
    Arg.(
      value & flag
      & info [ "selfcheck" ]
          ~doc:
            "Verify the service transcript is byte-identical across jobs=1/2/4 and \
             FTR_EXEC_SEQ=1, and that the scheduler invariants hold; exit 1 on divergence.")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the overlay as a message-passing service: actor nodes, deterministic mailboxes, \
          multi-hop lookups under churn")
    Term.(
      const run $ n_t 4096 $ initial_t $ links_t $ seed_t $ ticks_t $ rate_t $ join_rate_t
      $ crash_rate_t $ leave_rate_t $ stabilize_t $ ttl_t
      $ jobs_t
          ~doc:
            "Worker domains (default: the recommended domain count; never changes the \
             transcript)."
      $ shards_t $ json_t
      $ transcript_t $ explain_t $ no_wall_t $ selfcheck_t)

(* snapshot *)

let snapshot_cmd =
  let module Snapshot = Ftr_core.Snapshot in
  let module Route_batch = Ftr_core.Route_batch in
  (* A bad file must exit 1 with the defect named, never a backtrace. *)
  let or_die f =
    match f () with
    | v -> v
    | exception Snapshot.Corrupt msg ->
        Printf.eprintf "snapshot error: %s\n" msg;
        exit 1
    | exception Unix.Unix_error (e, _, arg) ->
        Printf.eprintf "snapshot error: %s: %s\n" arg (Unix.error_message e);
        exit 1
  in
  let path_t =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"PATH" ~doc:"Snapshot file (conventionally .ftrsnap).")
  in
  let geometry_label = function Network.Line -> "line" | Network.Circle -> "circle" in
  let print_info ~json (i : Snapshot.info) =
    if json then
      let open Ftr_obs.Json in
      print_endline
        (to_string
           (Obj
              [
                ("version", Int i.Snapshot.version);
                ("geometry", String (geometry_label i.Snapshot.geometry));
                ("line_size", Int i.Snapshot.line_size);
                ("nodes", Int i.Snapshot.nodes);
                ("edges", Int i.Snapshot.edges);
                ("links", Int i.Snapshot.links);
                ("file_bytes", Int i.Snapshot.file_bytes);
              ]))
    else
      Printf.printf "snapshot v%d: %d nodes on a %d-point %s, %d edges (l=%d), %d bytes\n"
        i.Snapshot.version i.Snapshot.nodes i.Snapshot.line_size
        (geometry_label i.Snapshot.geometry)
        i.Snapshot.edges i.Snapshot.links i.Snapshot.file_bytes
  in
  let save_cmd =
    let run n links seed ring path =
      let links = resolve_links n links in
      let rng = Rng.of_int seed in
      let net =
        if ring then Network.build_ring ~n ~links rng else Network.build_ideal ~n ~links rng
      in
      or_die (fun () -> Snapshot.save net ~path);
      print_info ~json:false (or_die (fun () -> Snapshot.info ~path))
    in
    let ring_t =
      Arg.(value & flag & info [ "ring" ] ~doc:"Build the circle network instead of the line.")
    in
    Cmd.v
      (Cmd.info "save" ~doc:"Build a network and write it as an mmap-able snapshot")
      Term.(const run $ n_t 65536 $ links_t $ seed_t $ ring_t $ path_t)
  in
  let info_cmd =
    let run json path = print_info ~json (or_die (fun () -> Snapshot.info ~path)) in
    Cmd.v
      (Cmd.info "info" ~doc:"Decode and verify a snapshot header without loading the payload")
      Term.(const run $ json_t $ path_t)
  in
  let load_cmd =
    let run copy no_verify messages jobs seed json path =
      let net =
        or_die (fun () -> Snapshot.load ~mmap:(not copy) ~validate:(not no_verify) ~path ())
      in
      let n = Network.size net in
      if not json then
        Printf.printf "loaded %d nodes, %d edges (%s, %s)\n" n
          (Ftr_graph.Adjacency.Csr.edge_count (Network.csr net))
          (if copy then "copied" else "mmap")
          (if no_verify then "unverified" else "verified");
      if messages > 0 then begin
        (* Smoke routing straight off the mapped file: uniform random
           pairs, batched over the exec pool. *)
        let rng = Rng.of_int seed in
        let pairs =
          Array.init messages (fun _ ->
              let src = Rng.int rng n in
              let rec draw () =
                let d = Rng.int rng n in
                if d = src then draw () else d
              in
              (src, draw ()))
        in
        let outcomes = Route_batch.run ?jobs net ~pairs in
        let delivered = ref 0 and hops = ref 0 in
        Array.iter
          (fun o ->
            if Route.delivered o then incr delivered;
            hops := !hops + Route.hops o)
          outcomes;
        if json then
          let open Ftr_obs.Json in
          print_endline
            (to_string
               (Obj
                  [
                    ("nodes", Int n);
                    ("messages", Int messages);
                    ("delivered", Int !delivered);
                    ("total_hops", Int !hops);
                  ]))
        else
          Printf.printf "routed %d messages: %d delivered, %.2f mean hops\n" messages !delivered
            (float_of_int !hops /. float_of_int messages)
      end
    in
    let copy_t =
      Arg.(
        value & flag
        & info [ "copy" ] ~doc:"Copy the payload into fresh memory instead of mmap views.")
    in
    let no_verify_t =
      Arg.(
        value & flag
        & info [ "no-verify" ]
            ~doc:"Skip the full structural validation (header and frame checks still run).")
    in
    let messages_t =
      Arg.(
        value & opt int 0
        & info [ "messages" ] ~docv:"M" ~doc:"Route M random messages off the loaded network.")
    in
    Cmd.v
      (Cmd.info "load" ~doc:"Load a snapshot (mmap by default) and optionally smoke-route it")
      Term.(
        const run $ copy_t $ no_verify_t $ messages_t
        $ jobs_t ~doc:"Worker domains for batch routing."
        $ seed_t $ json_t $ path_t)
  in
  Cmd.group
    (Cmd.info "snapshot" ~doc:"Save, inspect and load mmap-able binary network snapshots")
    [ save_cmd; info_cmd; load_cmd ]

let () =
  Ftr_obs.Events.install_exit_flush ();
  let info =
    Cmd.info "p2psim" ~version:"1.0.0"
      ~doc:"Fault-tolerant routing in peer-to-peer systems (Aspnes-Diamadi-Shah, PODC 2002)"
  in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            route_cmd;
            explain_cmd;
            figure5_cmd;
            figure6_cmd;
            figure7_cmd;
            table1_cmd;
            adversary_cmd;
            byzantine_cmd;
            recovery_cmd;
            anatomy_cmd;
            dht_cmd;
            churn_cmd;
            report_cmd;
            check_cmd;
            sweep_cmd;
            serve_cmd;
            snapshot_cmd;
          ]))
