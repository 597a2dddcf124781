(* The paper's evaluation as one table of artefacts: Figures 5-7, Table 1,
   the Section 4.2 machinery, the ablations and Section 7 extensions, the
   network anatomy, Byzantine nodes, the hash-table layer, the Section 3
   baselines and the dynamic protocol. `p2psim paper` runs the table at
   the reproduction's seed; the per-artefact subcommands print through
   the printers below. Shapes, not absolute values, are the reproduction
   target (EXPERIMENTS.md). *)

module E = Ftr_core.Experiment
module Network = Ftr_core.Network
module Route = Ftr_core.Route
module Failure = Ftr_core.Failure
module Heuristic = Ftr_core.Heuristic
module Theory = Ftr_core.Theory
module Ac = Ftr_core.Aggregate_chain
module Byz = Ftr_core.Byzantine
module Adv = Ftr_core.Adversary
module Churn = Ftr_p2p.Churn
module Recovery = Ftr_p2p.Recovery
module Overlay = Ftr_p2p.Overlay
module Workload = Ftr_dht.Workload
module B = Ftr_baselines
module Rng = Ftr_prng.Rng
module Summary = Ftr_stats.Summary
module Plot = Ftr_stats.Ascii_plot
module Csv = Ftr_stats.Csv
module Json = Ftr_obs.Json

(* The seed of every committed number: EXPERIMENTS.md, test/paper/ and
   results_full/. *)
let seed = 0xF7A

(* A uniform draw from [rng] over the nodes [0, n) that pass [alive]. *)
let rec draw_alive rng ~n alive =
  let v = Rng.int rng n in
  if alive v then v else draw_alive rng ~n alive

(* ------------------------------------------------------------------ *)
(* Printers, shared with the per-artefact subcommands                  *)
(* ------------------------------------------------------------------ *)

let print_figure5 (r : E.figure5_result) =
  Printf.printf "%10s %12s %12s %12s\n" "length" "derived" "ideal" "error";
  List.iter
    (fun p ->
      Printf.printf "%10d %12.6f %12.6f %+12.6f\n" p.E.length p.E.derived p.E.ideal p.E.error)
    r.E.points;
  Printf.printf "max |error| = %.4f at length %d; total variation = %.4f\n" r.E.max_abs_error
    r.E.max_abs_error_length r.E.total_variation

let print_figure6 rows =
  Printf.printf "%8s | %18s | %18s | %26s\n" "p" "terminate" "re-route" "backtrack(5)";
  Printf.printf "%8s | %8s %9s | %8s %9s | %8s %9s %7s\n" "" "failed" "hops" "failed" "hops"
    "failed" "hops" "path";
  List.iter
    (fun r ->
      Printf.printf "%8.2f | %8.4f %9.2f | %8.4f %9.2f | %8.4f %9.2f %7.2f\n" r.E.fail_fraction
        r.E.terminate.E.failed_fraction r.E.terminate.E.mean_hops r.E.reroute.E.failed_fraction
        r.E.reroute.E.mean_hops r.E.backtrack.E.failed_fraction r.E.backtrack.E.mean_hops
        r.E.backtrack.E.mean_path_hops)
    rows

let print_figure7 rows =
  Printf.printf "%12s %14s %18s\n" "p(node fail)" "ideal failed" "constructed failed";
  List.iter
    (fun r ->
      Printf.printf "%12.2f %14.4f %18.4f\n" r.E.death_p r.E.ideal_failed r.E.constructed_failed)
    rows

(* One captioned section of scaling rows (Table 1, ablations, extensions). *)
let print_scaling (caption, rows) =
  Printf.printf "\n--- %s ---\n%24s %12s %12s %12s %8s\n" caption "row" "param" "measured"
    "bound" "ratio";
  List.iter
    (fun r ->
      Printf.printf "%24s %12.3f %12.2f %12.2f %8.3f\n" r.E.label r.E.parameter r.E.measured
        r.E.bound r.E.ratio)
    rows

let table1_json sections =
  let row r =
    Json.Obj
      [
        ("label", Json.String r.E.label);
        ("parameter", Json.Float r.E.parameter);
        ("measured", Json.Float r.E.measured);
        ("bound", Json.Float r.E.bound);
        ("ratio", Json.Float r.E.ratio);
      ]
  in
  Json.List
    (List.map
       (fun (caption, rows) ->
         Json.Obj [ ("section", Json.String caption); ("rows", Json.List (List.map row rows)) ])
       sections)

let print_isolation (r : Adv.isolation_result) =
  Printf.printf "adversary budget: %d kills (the structural positions target±2^i)\n" r.Adv.kills;
  Printf.printf "geometric (Theorem 16) network: %6.4f of searches to the target fail\n"
    r.Adv.geometric_failed;
  Printf.printf "randomized 1/d network:         %6.4f of searches to the target fail\n"
    r.Adv.random_failed

let print_byzantine rows =
  Printf.printf "%10s %12s %12s %12s %14s\n" "byzantine" "naive" "retry" "backtrack"
    "wasted/search";
  List.iter
    (fun r ->
      Printf.printf "%10.2f %12.4f %12.4f %12.4f %14.2f\n" r.Byz.byzantine_fraction
        r.Byz.naive_failed r.Byz.retry_failed r.Byz.backtrack_failed r.Byz.retry_wasted)
    rows

let print_recovery (r : Recovery.result) =
  Printf.printf "killed %d of %d nodes at t=0\n" r.Recovery.killed r.Recovery.initial_nodes;
  Printf.printf "%8s %10s %18s %10s %10s\n" "time" "success" "probes/lookup" "hops" "repairs";
  List.iter
    (fun sm ->
      Printf.printf "%8.0f %10.3f %18.2f %10.2f %10d\n" sm.Recovery.time sm.Recovery.success_rate
        sm.Recovery.probes_per_lookup sm.Recovery.mean_hops sm.Recovery.repairs_so_far)
    r.Recovery.samples

(* Structural statistics of every builder at [n] nodes, the randomized
   ones drawn from [seed]. *)
let print_anatomy ~n ~links ~seed =
  let rng = Rng.of_int seed in
  Printf.printf "%26s %8s %8s %10s %9s %8s %8s %10s\n" "network" "out" "in(max)" "hotspot"
    "med.len" "p90" "p99" "boundary";
  List.iter
    (fun (name, net) ->
      let a = Ftr_core.Network_stats.anatomy net in
      Ftr_core.Network_stats.(
        Printf.printf "%26s %8.1f %8d %9.1fx %9.0f %8.0f %8.0f %9.2fx\n" name a.mean_out_degree
          a.max_in_degree a.in_degree_hotspot a.median_length a.p90_length a.p99_length
          a.boundary_distortion))
    [
      ("ideal 1/d line", Network.build_ideal ~n ~links (Rng.split rng));
      ("ideal 1/d circle", Network.build_ring ~n ~links (Rng.split rng));
      ("heuristic construction", Heuristic.build ~n ~links (Rng.split rng));
      ("geometric base-2", Network.build_geometric ~n ~base:2);
      ("chord-like", Network.build_chordlike ~n ());
    ]

let print_load (r : Workload.report) =
  Printf.printf "hit rate          %8.4f\n" r.Workload.hit_rate;
  Printf.printf "mean hops         %8.2f\n" r.Workload.mean_hops;
  Printf.printf "serving hotspot   %8.1fx the mean serving load\n" r.Workload.serve_max_over_mean;
  Printf.printf "forwarding hotspot%8.1fx the mean forwarding load\n"
    r.Workload.forward_max_over_mean

let print_churn (r : Churn.report) =
  Printf.printf "final live nodes     %8d\n" r.Churn.final_nodes;
  Printf.printf "joins/crashes/leaves %8d / %d / %d\n" r.Churn.joins r.Churn.crashes
    r.Churn.leaves;
  Printf.printf "lookups (user)       %8d, success %.4f, mean hops %.2f\n" r.Churn.lookups_issued
    r.Churn.success_rate r.Churn.mean_hops;
  Printf.printf "messages/probes/repairs %5d / %d / %d\n" r.Churn.messages r.Churn.probes
    r.Churn.repairs

(* ------------------------------------------------------------------ *)
(* CSV tables                                                          *)
(* ------------------------------------------------------------------ *)

(* A file `paper --csv DIR` writes, as DIR/<file>.csv. An artefact
   contributes rows to files; rows for one file from several artefacts
   land in table order. *)
type csv_file = { file : string; header : string list }

let figure5_csv file = { file; header = [ "length"; "derived"; "ideal"; "error" ] }

let figure6_csv =
  let strategies = [ "terminate"; "reroute"; "backtrack" ] in
  let columns = List.concat_map (fun s -> [ s ^ "_failed"; s ^ "_hops" ]) strategies in
  { file = "figure6"; header = ("fail_fraction" :: columns) @ [ "backtrack_path" ] }

let figure7_csv = { file = "figure7"; header = [ "death_p"; "ideal_failed"; "constructed_failed" ] }

let sweeps_csv =
  { file = "table1_and_sweeps"; header = [ "row"; "param"; "measured"; "bound"; "ratio" ] }

let f = Csv.float_field

(* Print a captioned section of scaling rows, and return them as
   [sweeps_csv] rows. *)
let scaling ((_, rows) as section) =
  print_scaling section;
  List.map (fun r -> [ r.E.label; f r.E.parameter; f r.E.measured; f r.E.bound; f r.E.ratio ]) rows

(* ------------------------------------------------------------------ *)
(* The artefacts                                                       *)
(* ------------------------------------------------------------------ *)

let section title =
  let rule = String.make 61 '=' in
  Printf.printf "\n%s\n%s\n%s\n" rule title rule

let subsection title = Printf.printf "\n--- %s ---\n" title

(* [default] at the default scale, [paper] under --full. *)
let scale ~full default paper = if full then paper else default

let figure5 ~full =
  let n, links, networks = scale ~full (1 lsl 12, 12, 3) (1 lsl 14, 14, 10) in
  section
    (Printf.sprintf
       "FIGURE 5 — link-length distribution of the Section 5 heuristic\n\
        (n=%d, links=%d, %d networks; paper: n=2^14, 14 links, 10 networks)" n links networks);
  List.map
    (fun (file, caption, replacement, seed) ->
      subsection caption;
      let r = E.figure5 ~replacement ~networks ~n ~links ~seed () in
      print_figure5 r;
      let points select =
        List.filter_map
          (fun p ->
            let y = select p in
            if y > 0.0 then Some (float_of_int p.E.length, y) else None)
          r.E.points
      in
      print_string
        (Plot.render ~x_log:true ~y_log:true ~x_label:"link length" ~y_label:"probability"
           [
             Plot.series ~glyph:'*' ~label:"derived" (points (fun p -> p.E.derived));
             Plot.series ~glyph:'o' ~label:"ideal 1/d" (points (fun p -> p.E.ideal));
           ]);
      ( figure5_csv file,
        List.map
          (fun p -> [ Csv.int_field p.E.length; f p.E.derived; f p.E.ideal; f p.E.error ])
          r.E.points ))
    [
      ( "figure5_proportional",
        "proportional replacement (Figure 5a/5b; paper: max |error| ~0.022 at length 2)",
        Heuristic.Proportional,
        seed );
      ( "figure5_oldest-link",
        "oldest-link replacement (Section 5 ablation; paper: 'almost as good')",
        Heuristic.Oldest,
        seed + 1 );
    ]

let figure6 ~full =
  let n, links, networks, messages = scale ~full (1 lsl 14, 14, 3, 300) (1 lsl 17, 17, 10, 1000) in
  section
    (Printf.sprintf
       "FIGURE 6 — failure strategies (n=%d, links=%d, %d networks x %d messages;\n\
        paper: n=2^17, 17 links, 1000 sims x 100 messages)" n links networks messages);
  let rows = E.figure6 ~n ~links ~networks ~messages ~seed () in
  print_figure6 rows;
  let series glyph label m =
    let failed r = (m r).E.failed_fraction in
    Plot.series ~glyph ~label (List.map (fun r -> (r.E.fail_fraction, failed r)) rows)
  in
  print_string
    (Plot.render ~x_label:"fraction of failed nodes" ~y_label:"failed searches"
       [
         series 't' "terminate" (fun r -> r.E.terminate);
         series 'r' "re-route" (fun r -> r.E.reroute);
         series 'b' "backtrack" (fun r -> r.E.backtrack);
       ]);
  print_string
    "expected shape: failed(terminate) ~ p; backtracking slashes failures\n\
     (paper: <30% failed searches at 80% failed nodes) at an exploration cost.\n\
     'hops' counts every message hop; 'path' is the loop-erased route length,\n\
     the scale Figure 6(b) plots.\n";
  let cells m = [ f m.E.failed_fraction; f m.E.mean_hops ] in
  let row r =
    (f r.E.fail_fraction :: cells r.E.terminate)
    @ cells r.E.reroute @ cells r.E.backtrack
    @ [ f r.E.backtrack.E.mean_path_hops ]
  in
  [ (figure6_csv, List.map row rows) ]

let figure7 ~full =
  let n, links, networks, messages = scale ~full (4096, 12, 3, 300) (16384, 14, 10, 1000) in
  section
    (Printf.sprintf
       "FIGURE 7 — ideal vs heuristically constructed network (n=%d, links=%d,\n\
        %d networks x %d messages; paper: n=16384, 10 iterations, 1000 messages)" n links networks
       messages);
  let rows = E.figure7 ~n ~links ~networks ~messages ~seed () in
  print_figure7 rows;
  print_string
    (Plot.render ~x_label:"probability of node failure" ~y_label:"failed searches"
       [
         Plot.series ~glyph:'i' ~label:"ideal"
           (List.map (fun r -> (r.E.death_p, r.E.ideal_failed)) rows);
         Plot.series ~glyph:'c' ~label:"constructed"
           (List.map (fun r -> (r.E.death_p, r.E.constructed_failed)) rows);
       ]);
  print_string "expected shape: constructed tracks ideal, slightly worse at high failure rates.\n";
  [
    ( figure7_csv,
      List.map (fun r -> [ f r.E.death_p; f r.E.ideal_failed; f r.E.constructed_failed ]) rows );
  ]

let table1 ~full =
  let n, networks, messages, trials =
    scale ~full (1 lsl 14, 4, 200, 300) (1 lsl 16, 10, 500, 1000)
  in
  section
    "TABLE 1 — delivery-time bounds vs measurement (ratio = measured/bound;\n\
     upper-bound rows must stay <= 1, the lower-bound row must stay >= 1)";
  [ (sweeps_csv, List.concat_map scaling (E.table1 ~n ~networks ~messages ~trials ~seed ())) ]

let lower_bound ~full =
  let n, trials = scale ~full (1 lsl 12, 1000) (1 lsl 14, 3000) in
  section "SECTION 4.2 — aggregate-chain machinery checks";
  let dist = Ac.harmonic ~links:3 ~max_offset:n in
  let rng = Rng.of_int seed in
  subsection "Lemma 4: single-point chain vs aggregate chain (means must agree)";
  let single = Summary.create () in
  for _ = 1 to trials do
    Summary.add_int single (Ac.simulate_single_point dist rng ~start:(1 + Rng.int rng n))
  done;
  let aggregate = Ac.mean_aggregate dist rng ~start:n ~trials in
  Printf.printf "single-point mean steps: %8.2f +- %.2f\n" (Summary.mean single)
    (Summary.ci95_halfwidth single);
  Printf.printf "aggregate    mean steps: %8.2f +- %.2f\n" (Summary.mean aggregate)
    (Summary.ci95_halfwidth aggregate);
  subsection "Lemma 6: Pr[|S'| <= |S|/a] <= 3 l / a";
  Printf.printf "%8s %8s %14s %14s\n" "k" "a" "empirical" "bound";
  let ell = Ac.mean_size dist in
  List.iter
    (fun k ->
      List.iter
        (fun a ->
          let p = Ac.lemma6_drop_probability dist rng ~k ~a ~trials:4000 in
          Printf.printf "%8d %8.0f %14.4f %14.4f\n" k a p (3.0 *. ell /. a))
        [ 16.0; 64.0; 256.0 ])
    [ n / 16; n ];
  []

let ablations ~full =
  let n, networks, messages, stretch_n, pairs =
    scale ~full (1 lsl 13, 4, 200, 1 lsl 12, 100) (1 lsl 15, 8, 400, 1 lsl 13, 200)
  in
  section "ABLATIONS — design choices called out in DESIGN.md";
  let exponent =
    scaling
      ( Printf.sprintf
          "link-distribution exponent at n=%d, 2 links (Kleinberg brittleness; mean hops at this n, \
           not the growth rate)"
          n,
        E.sweep_exponent ~n ~links:2 ~exponents:[ 0.0; 0.5; 0.8; 1.0; 1.2; 1.5; 2.0 ] ~networks
          ~messages ~seed () )
  in
  let sides =
    scaling
      ( Printf.sprintf "one-sided vs two-sided greedy at n=%d, 4 links" n,
        E.sweep_sides ~n ~links:4 ~networks ~messages ~seed () )
  in
  subsection "the price of locality: greedy hops vs global shortest paths";
  Printf.printf "%8s %14s %14s %14s %14s\n" "links" "greedy" "optimal" "mean stretch"
    "max stretch";
  List.iter
    (fun r ->
      Printf.printf "%8d %14.2f %14.2f %14.2f %14.2f\n" r.E.stretch_links r.E.mean_greedy
        r.E.mean_optimal r.E.mean_stretch r.E.max_stretch)
    (E.sweep_stretch ~n:stretch_n ~pairs ~seed ());
  subsection "backtracking history length at 50% failed nodes (paper fixes 5)";
  Printf.printf "%10s %14s %14s\n" "history" "failed" "hops";
  List.iter
    (fun r ->
      Printf.printf "%10d %14.4f %14.2f\n" r.E.history r.E.result.E.failed_fraction
        r.E.result.E.mean_hops)
    (E.sweep_backtrack_history ~n ~fraction:0.5 ~histories:[ 1; 2; 5; 10; 20 ] ~networks
       ~messages ~seed ());
  [ (sweeps_csv, exponent @ sides) ]

let extensions ~full =
  let networks, messages, line_n = scale ~full (4, 200, 1 lsl 13) (8, 400, 1 lsl 15) in
  let repair_n, repair_trials = scale ~full (1 lsl 12, 300) (1 lsl 14, 500) in
  let adv_n, adv_trials, hub_n, hub_messages =
    scale ~full (4096, 100, 1 lsl 12, 250) (16384, 300, 1 lsl 13, 400)
  in
  section "EXTENSIONS — Section 7 directions, implemented";
  let geometry =
    scaling
      ( "line vs circle at matched parameters (no boundary on the circle)",
        E.sweep_geometry ~n:line_n ~links:8 ~networks ~messages ~seed () )
  in
  subsection
    "higher dimensions at ~4096 nodes, alpha = dims, 4 long links,\n\
     30% node failures, backtracking(5)";
  Printf.printf "%8s %10s %14s %14s\n" "dims" "nodes" "failed" "hops";
  List.iter
    (fun r ->
      Printf.printf "%8d %10d %14.4f %14.2f\n" r.E.dims r.E.nodes r.E.failed_nd r.E.mean_hops_nd)
    (E.sweep_dimensions ~links:4 ~death_p:0.3 ~networks ~messages ~seed ());
  subsection
    "Section 5 repair: terminate-strategy failures before and after link\n\
     regeneration over the survivors of a 40% failure wave";
  let rn = repair_n and rrng = Rng.of_int (seed + 21) in
  let rnet = Network.build_ideal ~n:rn ~links:(int_of_float (Theory.lg rn)) (Rng.split rrng) in
  let mask = Failure.random_node_fraction rrng ~n:rn ~fraction:0.4 in
  let alive = Ftr_graph.Bitset.get mask and failures = Failure.of_node_mask mask in
  (* The share of [repair_trials] routes between endpoints [draw] picks
     that fail on [net]. *)
  let failed_share ?failures net draw =
    let failed = ref 0 in
    for _ = 1 to repair_trials do
      let src = draw () in
      if not (Route.delivered (Route.route ?failures net ~src ~dst:(draw ()))) then incr failed
    done;
    float_of_int !failed /. float_of_int repair_trials
  in
  let before = failed_share ~failures rnet (fun () -> draw_alive rrng ~n:rn alive) in
  let repaired = Heuristic.repair ~alive rnet (Rng.split rrng) in
  let after = failed_share repaired (fun () -> Rng.int rrng (Network.size repaired)) in
  Printf.printf "before repair: %.4f of searches fail (terminate strategy)\n" before;
  Printf.printf "after repair:  %.4f — the survivors are a full random graph again\n" after;
  subsection
    "adversarial failures (Section 4.3.4.2): kill the 2*log2(n) structural\n\
     in-neighbour positions of a target in both networks";
  print_isolation (Adv.isolation_experiment ~n:adv_n ~trials:adv_trials ~seed ());
  print_string "the deterministic structure betrays its links; the random graph hides them.\n";
  subsection
    "hub attack: kill 10% of nodes at random vs by descending in-degree\n\
     (backtracking searches; the 1/d overlay is egalitarian by design)";
  Printf.printf "%26s %10s %16s %16s\n" "network" "kills" "random failed" "targeted failed";
  let links = int_of_float (Theory.lg hub_n) in
  let arng = Rng.of_int (seed + 11) in
  List.iter
    (fun (name, net) ->
      let r =
        Adv.degree_attack_experiment ~kills_fraction:0.1 ~messages:hub_messages ~net
          ~seed:(seed + 12) ()
      in
      Printf.printf "%26s %10d %16.4f %16.4f\n" name r.Adv.attack_kills r.Adv.random_failed
        r.Adv.targeted_failed)
    [
      ("ideal 1/d", Network.build_ideal ~n:hub_n ~links (Rng.split arng));
      ("heuristic construction", Heuristic.build ~n:hub_n ~links (Rng.split arng));
    ];
  print_string
    "flat in-degree leaves a targeted adversary no hubs to decapitate; the\n\
     heuristic's in-degree skew (see NETWORK ANATOMY) gives it slightly more.\n";
  [ (sweeps_csv, geometry) ]

let anatomy ~full =
  let n = scale ~full (1 lsl 12) (1 lsl 14) in
  section "NETWORK ANATOMY — the structure the arguments lean on";
  print_anatomy ~n ~links:(int_of_float (Theory.lg n)) ~seed;
  print_string
    "random 1/d networks spread in-degree (hotspot stays small) and their\n\
     link lengths span the whole line (median ~ sqrt n); only the line's\n\
     edge nodes reach measurably farther than its middle (boundary > 1).\n";
  []

let byzantine ~full =
  let n, networks, messages, trials = scale ~full (1 lsl 12, 3, 150, 200) (1 lsl 14, 6, 300, 400) in
  section
    "SECURITY — Byzantine blackholes (Section 7): failed searches vs the\n\
     fraction of silently message-dropping nodes";
  let rows = Byz.sweep ~n ~networks ~messages ~seed () in
  print_byzantine rows;
  let series glyph label failed =
    Plot.series ~glyph ~label (List.map (fun r -> (r.Byz.byzantine_fraction, failed r)) rows)
  in
  print_string
    (Plot.render ~x_label:"byzantine fraction" ~y_label:"failed searches"
       [
         series 'n' "naive" (fun r -> r.Byz.naive_failed);
         series 'r' "retry" (fun r -> r.Byz.retry_failed);
         series 'b' "retry+backtrack" (fun r -> r.Byz.backtrack_failed);
       ]);
  print_string
    "timeouts + per-search blacklists turn blackholes into crash failures;\n\
     with backtracking the overlay absorbs large Byzantine populations.\n";
  subsection "misrouting adversary (sabotage instead of dropping; no defence applies)";
  let rng = Rng.of_int (seed + 5) in
  let net = Network.build_ideal ~n ~links:(int_of_float (Theory.lg n)) (Rng.split rng) in
  Printf.printf "%10s %12s %14s %16s\n" "byzantine" "delivered" "mean hops" "sabotage hops";
  List.iter
    (fun fraction ->
      let mask = Failure.random_node_fraction rng ~n ~fraction in
      let byzantine v = not (Ftr_graph.Bitset.get mask v) in
      let honest () = draw_alive rng ~n (fun v -> not (byzantine v)) in
      let delivered = ref 0 and hops = Summary.create () and sab = Summary.create () in
      for _ = 1 to trials do
        let src = honest () in
        let dst = honest () in
        let m = Byz.route_misroute net ~byzantine ~src ~dst in
        if Route.delivered m.Byz.outcome then begin
          incr delivered;
          Summary.add_int hops (Route.hops m.Byz.outcome);
          Summary.add_int sab m.Byz.wasted
        end
      done;
      Printf.printf "%10.2f %12.3f %14.1f %16.2f\n" fraction
        (float_of_int !delivered /. float_of_int trials)
        (Summary.mean hops) (Summary.mean sab))
    [ 0.0; 0.05; 0.1; 0.2 ];
  print_string
    "misrouting cannot be blacklisted (nothing observable fails), but greedy\n\
     progress is self-correcting: sabotage inflates hop counts long before it\n\
     defeats delivery.\n";
  []

let dht ~full =
  let n, keys, requests = scale ~full (1 lsl 12, 500, 1500) (1 lsl 14, 2000, 4000) in
  section "HASH-TABLE FUNCTIONALITY — the Section 2 resource layer (ftr_dht)";
  let rng = Rng.of_int seed in
  let net = Network.build_ideal ~n ~links:(int_of_float (Theory.lg n)) rng in
  let key i = Printf.sprintf "resource-%d" i in
  List.iter
    (fun (replicas, fraction) ->
      let store = Ftr_dht.Store.create ~replicas net in
      for i = 0 to keys - 1 do
        Ftr_dht.Store.put store ~key:(key i) ~value:"payload"
      done;
      let mask = Failure.random_node_fraction rng ~n ~fraction in
      let failures = Failure.of_node_mask mask in
      let src = draw_alive rng ~n (Ftr_graph.Bitset.get mask) in
      let hits = ref 0 and hops = Summary.create () in
      for i = 0 to keys - 1 do
        let r =
          Ftr_dht.Store.routed_get ~failures ~strategy:(Route.Backtrack { history = 5 }) ~rng
            store ~src ~key:(key i)
        in
        if r.Ftr_dht.Store.value <> None then begin
          incr hits;
          Summary.add_int hops r.Ftr_dht.Store.hops
        end
      done;
      Printf.printf
        "replicas=%d, %2.0f%% nodes dead: %4d/%d resources retrievable, %.1f hops per hit\n"
        replicas (100.0 *. fraction) !hits keys (Summary.mean hops))
    [ (1, 0.0); (1, 0.3); (3, 0.3); (3, 0.5) ];
  subsection "load balance under Zipf-popular requests (Section 1's cost fairness)";
  let w = Workload.create ~universe:(keys / 2) () in
  List.iter
    (fun (replicas, spread, label) ->
      let store = Ftr_dht.Store.create ~replicas net in
      Array.iter (fun k -> Ftr_dht.Store.put store ~key:k ~value:"v") (Workload.keys w);
      Printf.printf "%s, %d requests:\n" label requests;
      print_load (Workload.measure_load ~spread ~store ~requests w (Rng.of_int (seed + 3))))
    [
      (1, false, "1 replica");
      (4, false, "4 replicas, primary reads");
      (4, true, "4 replicas, spread reads");
    ];
  print_string
    "salted-replica read spreading divides the hottest node's serving load\n\
     across the replica set without touching the routing layer.\n";
  subsection "data availability under churn (dynamic store + anti-entropy)";
  let line_size = 1024 and pairs = 200 in
  let engine = Ftr_sim.Engine.create () in
  let churn_rng = Rng.of_int (seed + 7) in
  let overlay = Overlay.create ~line_size ~links:8 ~rng:(Rng.split churn_rng) engine in
  Overlay.populate overlay ~positions:(List.init 128 (fun i -> i * 8));
  let store = Ftr_dht.Dynamic.create ~replicas:2 ~line_size overlay in
  let key i = Printf.sprintf "pair-%d" i in
  for i = 0 to pairs - 1 do
    Ftr_dht.Dynamic.put store ~from:0 ~key:(key i) ~value:"v"
  done;
  Ftr_sim.Engine.run engine;
  Printf.printf "%10s %14s %14s\n" "epoch" "stored pairs" "get success";
  for epoch = 1 to 5 do
    (* One epoch: crashes + joins, then an anti-entropy sweep. *)
    List.iter
      (fun pos ->
        if Rng.bernoulli churn_rng 0.08 && Overlay.node_count overlay > 32 && pos <> 0 then
          Overlay.crash overlay ~pos)
      (Overlay.live_positions overlay);
    for _ = 1 to 8 do
      let pos = Rng.int churn_rng line_size in
      if not (Overlay.is_alive overlay pos) then Overlay.join overlay ~pos ~via:0
    done;
    Ftr_sim.Engine.run engine;
    ignore (Ftr_dht.Dynamic.rebalance store);
    Ftr_sim.Engine.run engine;
    let hits = ref 0 in
    for i = 0 to pairs - 1 do
      Ftr_dht.Dynamic.get store ~from:0 ~key:(key i) ~callback:(fun v ->
          if v <> None then incr hits)
    done;
    Ftr_sim.Engine.run engine;
    Printf.printf "%10d %14d %14.3f\n" epoch (Ftr_dht.Dynamic.stored_pairs store)
      (float_of_int !hits /. float_of_int pairs)
  done;
  print_string
    "two salted replicas plus per-epoch anti-entropy keep essentially all\n\
     pairs retrievable through repeated crash waves.\n";
  []

let baselines ~full =
  let n, messages, fail_messages = scale ~full (1 lsl 12, 500, 200) (1 lsl 14, 2000, 500) in
  let side = int_of_float (sqrt (float_of_int n)) in
  let m = side * side in
  section
    (Printf.sprintf
       "SECTION 3 BASELINES — mean hops between random pairs at ~%d nodes\n\
        (flooding reports messages per query, its actual cost)" n);
  let rng = Rng.of_int seed in
  let sample hops =
    let s = Summary.create () in
    for _ = 1 to messages do
      Summary.add_int s (hops ())
    done;
    s
  in
  let links = int_of_float (Theory.lg n) in
  let line = Network.build_ideal ~n ~links (Rng.split rng) in
  let ours =
    sample (fun () -> Route.hops (Route.route line ~src:(Rng.int rng n) ~dst:(Rng.int rng n)))
  in
  let chord = B.Chord.create_full ~n in
  let chord_s =
    sample (fun () -> B.Chord.route_hops chord ~src:(Rng.int rng n) ~key:(Rng.int rng n))
  in
  let kle = B.Kleinberg.build ~long_links:4 ~side (Rng.split rng) in
  let kle_s =
    sample (fun () -> B.Kleinberg.route_hops kle ~src:(Rng.int rng m) ~dst:(Rng.int rng m))
  in
  let lat = B.Lattice.create ~dims:2 ~side in
  let lat_s =
    sample (fun () -> B.Lattice.route_hops lat ~src:(Rng.int rng m) ~dst:(Rng.int rng m))
  in
  let flood_net = B.Flooding.random_overlay ~n ~degree:4 (Rng.split rng) in
  let flood_s =
    sample (fun () ->
        let src = Rng.int rng n and dst = Rng.int rng n in
        if src = dst then 0
        else (B.Flooding.search flood_net ~src ~dst).B.Flooding.messages)
  in
  Printf.printf "%40s %12s %12s\n" "system" "mean" "max";
  let row name s unit_ =
    Printf.printf "%40s %12.1f %12.0f  (%s)\n" name (Summary.mean s) (Summary.max_value s) unit_
  in
  row (Printf.sprintf "this paper (line, %d links)" (Network.links line)) ours "hops";
  row "Chord finger tables" chord_s "hops";
  row (Printf.sprintf "Kleinberg 2-D grid (%dx%d, 4 links)" side side) kle_s "hops";
  row (Printf.sprintf "CAN-style lattice (%dx%d)" side side) lat_s "hops";
  let plx = B.Plaxton.create ~base:2 ~digits:links in
  let plx_s =
    sample (fun () -> B.Plaxton.route_hops plx ~src:(Rng.int rng n) ~dst:(Rng.int rng n))
  in
  row (Printf.sprintf "Tapestry-style prefix routing (2^%d ids)" links) plx_s "hops";
  row "Gnutella-style flooding" flood_s "messages/query";
  subsection
    "failure comparison (the paper: \"our methods appear to perform as well as\n\
     theirs\"): failed-search fractions under the same node-failure model";
  Printf.printf "%8s %16s %16s %22s\n" "p(fail)" "chord r=1" "chord r=4" "this paper (backtrack)";
  let fractions = [ 0.0; 0.2; 0.4; 0.6; 0.8 ] in
  List.iter2
    (fun c o ->
      Printf.printf "%8.2f %16.4f %16.4f %22.4f\n" c.B.Chord.fail_fraction
        c.B.Chord.failed_r1 c.B.Chord.failed_r4
        o.E.backtrack.E.failed_fraction)
    (B.Chord.failure_sweep ~n ~fractions ~messages:fail_messages ~seed ())
    (E.figure6 ~n ~links ~networks:2 ~messages:fail_messages ~fractions ~seed ());
  []

let churn ~full =
  let line_size, duration, joins, line_sizes =
    scale ~full
      (1 lsl 10, 1000.0, 40, [ 512; 2048; 8192 ])
      (1 lsl 12, 3000.0, 80, [ 512; 2048; 8192; 32768 ])
  in
  let recovery_size, samples, sweep_duration = scale ~full (4096, 10, 500.0) (8192, 14, 1000.0) in
  section "DYNAMIC PROTOCOL — churn on the event-driven overlay (ftr_p2p)";
  print_churn
    (Churn.run
       ~config:
         {
           Churn.duration;
           join_rate = 0.05;
           crash_rate = 0.03;
           leave_rate = 0.02;
           lookup_rate = 2.0;
           min_nodes = 16;
         }
       ~seed ~line_size ~initial_nodes:(line_size / 8) ~links:8 ());
  subsection "join cost vs network size (the paper's scalability requirement)";
  Printf.printf "%12s %20s %20s\n" "line size" "messages/join" "lookups/join";
  List.iter
    (fun row ->
      Printf.printf "%12d %20.1f %20.1f\n" row.Churn.line_size row.Churn.mean_messages_per_join
        row.Churn.mean_lookups_per_join)
    (Churn.join_cost ~links:8 ~joins ~line_sizes ());
  print_string
    "lookups per join stay flat (~1 + l + Poisson(l)); messages per join grow\n\
     only logarithmically with n — polylog maintenance, as Section 1 demands.\n";
  subsection "idle self-healing: crash 25% of nodes, run only stabilization";
  let engine = Ftr_sim.Engine.create () in
  let rng = Rng.of_int (seed + 9) in
  let overlay = Overlay.create ~line_size:4096 ~links:8 ~rng:(Rng.split rng) engine in
  Overlay.populate overlay ~positions:(List.init 512 (fun i -> i * 8));
  List.iter
    (fun pos -> if Rng.bernoulli rng 0.25 then Overlay.crash overlay ~pos)
    (Overlay.live_positions overlay);
  Overlay.enable_stabilization ~period:5.0 ~checks_per_tick:64 ~until:3000.0 overlay;
  Ftr_sim.Engine.run ~until:3000.0 engine;
  let s = Overlay.stats overlay in
  Printf.printf "probes sent %d, dead links repaired %d with zero lookup traffic\n"
    s.Overlay.probes s.Overlay.repairs;
  let positions = Array.of_list (Overlay.live_positions overlay) in
  for _ = 1 to 200 do
    let from = positions.(Rng.int rng (Array.length positions)) in
    Overlay.lookup overlay ~from ~target:(Rng.int rng 4096) ()
  done;
  Ftr_sim.Engine.run engine;
  Printf.printf "post-healing lookups: %d/%d succeed\n" s.Overlay.lookups_ok
    (s.Overlay.lookups_ok + s.Overlay.lookups_failed);
  subsection "recovery curve: 30% mass crash at t=0, stabilization only";
  let recovery =
    Recovery.run ~line_size:recovery_size ~kill_fraction:0.3 ~period:10.0 ~checks_per_tick:16
      ~samples ~seed ()
  in
  print_recovery recovery;
  print_string
    (Plot.render ~x_label:"virtual time" ~y_label:"probes per lookup"
       [
         Plot.series ~glyph:'p' ~label:"repair burden"
           (List.map
              (fun sm -> (sm.Recovery.time, sm.Recovery.probes_per_lookup))
              recovery.Recovery.samples);
       ]);
  print_string
    "lookups stay ~100% successful throughout; the probe overhead they pay\n\
     decays as stabilization heals the damage — the self-healing curve.\n";
  subsection "lookup health vs churn intensity";
  Printf.printf "%14s %10s %10s %12s %14s\n" "events/unit" "success" "hops" "repairs"
    "probes/lookup";
  List.iter
    (fun row ->
      let r = row.Recovery.report in
      Printf.printf "%14.2f %10.4f %10.2f %12d %14.2f\n" row.Recovery.events_per_unit
        r.Churn.success_rate r.Churn.mean_hops r.Churn.repairs
        (float_of_int r.Churn.probes /. float_of_int (max 1 r.Churn.lookups_issued)))
    (Recovery.churn_sweep ~duration:sweep_duration ~rates:[ 0.05; 0.2; 0.8; 2.0 ] ~seed ());
  print_string
    "success holds near 100% across a 40x churn range; what grows is the\n\
     repair traffic — maintenance cost is where churn bites, not lookups.\n";
  []

(* The evaluation, in the order `paper` runs it. Each artefact prints its
   text and plots, and returns the CSV rows it contributes. *)
let artefacts =
  [
    ("figure5", figure5);
    ("figure6", figure6);
    ("figure7", figure7);
    ("table1", table1);
    ("lower_bound", lower_bound);
    ("ablations", ablations);
    ("extensions", extensions);
    ("anatomy", anatomy);
    ("byzantine", byzantine);
    ("dht", dht);
    ("baselines", baselines);
    ("churn", churn);
  ]

let run ~full ~csv names =
  Printf.printf "Fault-tolerant routing in peer-to-peer systems — the paper's evaluation\n";
  Printf.printf "scale: %s, seed 0x%X\n"
    (if full then "FULL (paper scale)" else "default (reduced; --full for paper scale)")
    seed;
  let tables =
    List.concat_map
      (fun (name, artefact) -> if names = [] || List.mem name names then artefact ~full else [])
      artefacts
  in
  match csv with
  | None -> ()
  | Some dir ->
      Csv.mkdir_p dir;
      let same a b = String.equal a.file b.file in
      let files = List.sort_uniq (fun a b -> String.compare a.file b.file) (List.map fst tables) in
      List.iter
        (fun file ->
          let rows = List.concat_map (fun (g, rows) -> if same g file then rows else []) tables in
          let path = Filename.concat dir (file.file ^ ".csv") in
          Csv.write_file ~path ~header:file.header ~rows;
          Printf.printf "[csv] wrote %s\n" path)
        files

let cmd =
  let open Cmdliner in
  let names_t =
    Arg.(
      value
      & pos_all (enum (List.map (fun (name, _) -> (name, name)) artefacts)) []
      & info [] ~docv:"NAME"
          ~doc:
            (Printf.sprintf "Artefacts to run, always in table order (default: all): %s."
               (String.concat ", " (List.map fst artefacts))))
  in
  let full_t = Arg.(value & flag & info [ "full" ] ~doc:"Run at the paper's scale (minutes).") in
  let csv_t =
    Arg.(
      value
      & opt (some string) None
      & info [ "csv" ] ~docv:"DIR" ~doc:"Also write every table as DIR/<table>.csv.")
  in
  Cmd.v
    (Cmd.info "paper"
       ~doc:
         "Regenerate the paper's evaluation: every figure, table, sweep and extension, at the \
          reproduction's seed")
    Term.(const (fun full csv names -> run ~full ~csv names) $ full_t $ csv_t $ names_t)
