(* ftr-lint: disable-file R1 T2 -- benchmark wall-clock timing is the measurement itself *)

(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (Sections 5 and 6, Table 1), then times the hot paths with
   Bechamel.

   Default scale finishes in a few minutes; set FTR_BENCH_FULL=1 to run at
   the paper's node counts (slower). Numbers are means over the stated
   number of networks/messages; shapes, not absolute values, are the
   reproduction target (see EXPERIMENTS.md). *)

module E = Ftr_core.Experiment
module Network = Ftr_core.Network
module Route = Ftr_core.Route
module Heuristic = Ftr_core.Heuristic
module Theory = Ftr_core.Theory
module Ac = Ftr_core.Aggregate_chain
module Rng = Ftr_prng.Rng
module Summary = Ftr_stats.Summary
module Plot = Ftr_stats.Ascii_plot

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

(* Set FTR_BENCH_CSV=<dir> to also export every table as CSV. *)
let csv_dir = Sys.getenv_opt "FTR_BENCH_CSV"

let mkdir_p = Ftr_stats.Csv.mkdir_p

let csv name ~header ~rows =
  match csv_dir with
  | None -> ()
  | Some dir ->
      mkdir_p dir;
      let path = Filename.concat dir (name ^ ".csv") in
      Ftr_stats.Csv.write_file ~path ~header ~rows;
      Printf.printf "[csv] wrote %s\n%!" path

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
   across jobs, a warm cache analyzing nothing): the file is written
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
(* Figure 5                                                            *)
(* ------------------------------------------------------------------ *)

let run_figure5 () =
  let n = if full then 1 lsl 14 else 1 lsl 12 in
  let links = if full then 14 else 12 in
  let networks = if full then 10 else 3 in
  section
    (Printf.sprintf
       "FIGURE 5 — link-length distribution of the Section 5 heuristic\n\
        (n=%d, links=%d, %d networks; paper: n=2^14, 14 links, 10 networks)" n links networks);
  let show name r =
    subsection name;
    Printf.printf "%10s %12s %12s %12s\n" "length" "derived" "ideal" "abs.error";
    List.iter
      (fun p ->
        Printf.printf "%10d %12.6f %12.6f %12.6f\n" p.E.length p.E.derived p.E.ideal
          (abs_float p.E.error))
      r.E.points;
    Printf.printf "max |error| = %.4f at length %d (paper: ~0.022 at length 2)\n" r.E.max_abs_error
      r.E.max_abs_error_length;
    Printf.printf "total variation distance = %.4f\n%!" r.E.total_variation;
    let tag =
      (* First word of the caption, lowercased: "proportional" / "oldest-link". *)
      match String.split_on_char ' ' name with w :: _ -> String.lowercase_ascii w | [] -> "x"
    in
    csv
      (Printf.sprintf "figure5_%s" tag)
      ~header:[ "length"; "derived"; "ideal"; "error" ]
      ~rows:
        (List.map
           (fun p ->
             Ftr_stats.Csv.
               [ int_field p.E.length; float_field p.E.derived; float_field p.E.ideal; float_field p.E.error ])
           r.E.points);
    let to_points select =
      List.filter_map
        (fun p ->
          let y = select p in
          if y > 0.0 then Some (float_of_int p.E.length, y) else None)
        r.E.points
    in
    print_string
      (Plot.render ~x_log:true ~y_log:true ~x_label:"link length" ~y_label:"probability"
         [
           Plot.series ~glyph:'*' ~label:"derived" (to_points (fun p -> p.E.derived));
           Plot.series ~glyph:'o' ~label:"ideal 1/d" (to_points (fun p -> p.E.ideal));
         ])
  in
  show "proportional replacement (Figure 5a/5b)"
    (E.figure5 ~replacement:Heuristic.Proportional ~networks ~n ~links ~seed ());
  show "oldest-link replacement (Section 5 ablation; paper: 'almost as good')"
    (E.figure5 ~replacement:Heuristic.Oldest ~networks ~n ~links ~seed:(seed + 1) ())

(* ------------------------------------------------------------------ *)
(* Figure 6                                                            *)
(* ------------------------------------------------------------------ *)

let run_figure6 () =
  let n = if full then 1 lsl 17 else 1 lsl 14 in
  let links = if full then 17 else 14 in
  let networks = if full then 10 else 3 in
  let messages = if full then 1000 else 300 in
  section
    (Printf.sprintf
       "FIGURE 6 — failure strategies (n=%d, links=%d, %d networks x %d messages;\n\
        paper: n=2^17, 17 links, 1000 sims x 100 messages)" n links networks messages);
  Printf.printf "%8s | %22s | %22s | %31s\n" "" "terminate" "random re-route" "backtracking(5)";
  Printf.printf "%8s | %10s %11s | %10s %11s | %10s %11s %8s\n" "p(fail)" "failed" "hops" "failed"
    "hops" "failed" "hops" "path";
  let rows = E.figure6 ~n ~links ~networks ~messages ~seed () in
  List.iter
    (fun r ->
      Printf.printf "%8.2f | %10.4f %11.2f | %10.4f %11.2f | %10.4f %11.2f %8.2f\n%!"
        r.E.fail_fraction r.E.terminate.E.failed_fraction r.E.terminate.E.mean_hops
        r.E.reroute.E.failed_fraction r.E.reroute.E.mean_hops r.E.backtrack.E.failed_fraction
        r.E.backtrack.E.mean_hops r.E.backtrack.E.mean_path_hops)
    rows;
  csv "figure6"
    ~header:
      [
        "fail_fraction"; "terminate_failed"; "terminate_hops"; "reroute_failed"; "reroute_hops";
        "backtrack_failed"; "backtrack_hops"; "backtrack_path";
      ]
    ~rows:
      (List.map
         (fun r ->
           Ftr_stats.Csv.
             [
               float_field r.E.fail_fraction;
               float_field r.E.terminate.E.failed_fraction;
               float_field r.E.terminate.E.mean_hops;
               float_field r.E.reroute.E.failed_fraction;
               float_field r.E.reroute.E.mean_hops;
               float_field r.E.backtrack.E.failed_fraction;
               float_field r.E.backtrack.E.mean_hops;
               float_field r.E.backtrack.E.mean_path_hops;
             ])
         rows);
  print_string
    (Plot.render ~x_label:"fraction of failed nodes" ~y_label:"failed searches"
       [
         Plot.series ~glyph:'t' ~label:"terminate"
           (List.map (fun r -> (r.E.fail_fraction, r.E.terminate.E.failed_fraction)) rows);
         Plot.series ~glyph:'r' ~label:"re-route"
           (List.map (fun r -> (r.E.fail_fraction, r.E.reroute.E.failed_fraction)) rows);
         Plot.series ~glyph:'b' ~label:"backtrack"
           (List.map (fun r -> (r.E.fail_fraction, r.E.backtrack.E.failed_fraction)) rows);
       ]);
  Printf.printf
    "expected shape: failed(terminate) ~ p; backtracking slashes failures\n\
     (paper: <30%% failed searches at 80%% failed nodes) at an exploration cost.\n\
     'hops' counts every message hop; 'path' is the loop-erased route length,\n\
     the scale Figure 6(b) plots.\n%!"

(* ------------------------------------------------------------------ *)
(* Figure 7                                                            *)
(* ------------------------------------------------------------------ *)

let run_figure7 () =
  let n = if full then 16384 else 4096 in
  let links = if full then 14 else 12 in
  let networks = if full then 10 else 3 in
  let messages = if full then 1000 else 300 in
  section
    (Printf.sprintf
       "FIGURE 7 — ideal vs heuristically constructed network (n=%d, links=%d,\n\
        %d networks x %d messages; paper: n=16384, 10 iterations, 1000 messages)" n links networks
       messages);
  Printf.printf "%12s %16s %20s\n" "p(node fail)" "ideal failed" "constructed failed";
  let rows = E.figure7 ~n ~links ~networks ~messages ~seed () in
  List.iter
    (fun r ->
      Printf.printf "%12.2f %16.4f %20.4f\n%!" r.E.death_p r.E.ideal_failed r.E.constructed_failed)
    rows;
  csv "figure7" ~header:[ "death_p"; "ideal_failed"; "constructed_failed" ]
    ~rows:
      (List.map
         (fun r ->
           Ftr_stats.Csv.
             [ float_field r.E.death_p; float_field r.E.ideal_failed; float_field r.E.constructed_failed ])
         rows);
  print_string
    (Plot.render ~x_label:"probability of node failure" ~y_label:"failed searches"
       [
         Plot.series ~glyph:'i' ~label:"ideal"
           (List.map (fun r -> (r.E.death_p, r.E.ideal_failed)) rows);
         Plot.series ~glyph:'c' ~label:"constructed"
           (List.map (fun r -> (r.E.death_p, r.E.constructed_failed)) rows);
       ]);
  Printf.printf
    "expected shape: constructed tracks ideal, slightly worse at high failure rates.\n%!"

(* ------------------------------------------------------------------ *)
(* Table 1                                                             *)
(* ------------------------------------------------------------------ *)

let table1_csv_rows : string list list ref = ref []

let print_rows header rows =
  subsection header;
  Printf.printf "%24s %12s %12s %12s %8s\n" "row" "param" "measured" "bound" "ratio";
  List.iter
    (fun r ->
      table1_csv_rows :=
        Ftr_stats.Csv.
          [
            r.E.label; float_field r.E.parameter; float_field r.E.measured;
            float_field r.E.bound; float_field r.E.ratio;
          ]
        :: !table1_csv_rows;
      Printf.printf "%24s %12.3f %12.2f %12.2f %8.3f\n%!" r.E.label r.E.parameter r.E.measured
        r.E.bound r.E.ratio)
    rows

let run_table1 () =
  section
    "TABLE 1 — delivery-time bounds vs measurement (ratio = measured/bound;\n\
     upper-bound rows must stay <= 1, the lower-bound row must stay >= 1)";
  let networks = if full then 10 else 4 in
  let messages = if full then 500 else 200 in
  let big = if full then 1 lsl 16 else 1 lsl 14 in
  let ns = if full then [ 1024; 4096; 16384; 65536 ] else [ 256; 1024; 4096; 16384 ] in
  print_rows "no failures, 1 link: T = O(H_n^2)  [Theorem 12]"
    (E.sweep_single_link ~ns ~networks ~messages ~seed ());
  print_rows
    (Printf.sprintf "no failures, l links, n=%d: T = O(log^2 n / l)  [Theorem 13]" big)
    (E.sweep_multi_link ~n:big ~links_list:[ 1; 2; 4; 8; 14 ] ~networks ~messages ~seed ());
  print_rows "deterministic base-2 links: T <= ceil(log2 n)  [Theorem 14]"
    (E.sweep_deterministic ~ns ~base:2 ~messages ~seed ());
  print_rows "deterministic base-16 links: T <= ceil(log16 n)  [Theorem 14]"
    (E.sweep_deterministic ~ns ~base:16 ~messages ~seed ());
  print_rows
    (Printf.sprintf "link failures, n=%d: T = O(log^2 n / p l)  [Theorem 15]" big)
    (E.sweep_link_failure ~n:big ~probs:[ 1.0; 0.8; 0.6; 0.4; 0.2 ] ~networks ~messages ~seed ());
  print_rows
    (Printf.sprintf "geometric links + failures, n=%d: T = O(b log n / p)  [Theorem 16]" big)
    (E.sweep_geometric_link_failure ~n:big ~base:2 ~probs:[ 1.0; 0.8; 0.6; 0.4 ] ~networks
       ~messages ~seed ());
  print_rows
    (Printf.sprintf "binomial node presence, n=%d, 1 link: T = O(log^2 n)  [Theorem 17]" big)
    (E.sweep_binomial_nodes ~n:big ~links:1 ~probs:[ 1.0; 0.7; 0.5; 0.3 ] ~networks ~messages
       ~seed ());
  print_rows
    (Printf.sprintf "node failures, n=%d: T = O(log^2 n / (1-p) l)  [Theorem 18]" big)
    (E.sweep_node_failure ~n:big ~probs:[ 0.0; 0.2; 0.4; 0.6 ] ~networks ~messages ~seed ());
  print_rows "one-sided greedy vs Omega(log^2 n / l loglog n)  [Theorem 10]"
    (E.sweep_lower_bound ~ns ~links:3 ~trials:(if full then 1000 else 300) ~seed ())

(* ------------------------------------------------------------------ *)
(* Lower-bound machinery (Section 4.2)                                 *)
(* ------------------------------------------------------------------ *)

let run_lower_bound_machinery () =
  section "SECTION 4.2 — aggregate-chain machinery checks";
  let n = if full then 1 lsl 14 else 1 lsl 12 in
  let links = 3 in
  let trials = if full then 3000 else 1000 in
  let dist = Ac.harmonic ~links ~max_offset:n in
  let rng = Rng.of_int seed in
  subsection "Lemma 4: single-point chain vs aggregate chain (means must agree)";
  let single = Summary.create () in
  for _ = 1 to trials do
    Summary.add_int single (Ac.simulate_single_point dist rng ~start:(1 + Rng.int rng n))
  done;
  let aggregate = Ac.mean_aggregate dist rng ~start:n ~trials in
  Printf.printf "single-point mean steps: %8.2f +- %.2f\n" (Summary.mean single)
    (Summary.ci95_halfwidth single);
  Printf.printf "aggregate    mean steps: %8.2f +- %.2f\n%!" (Summary.mean aggregate)
    (Summary.ci95_halfwidth aggregate);
  subsection "Lemma 6: Pr[|S'| <= |S|/a] <= 3 l / a";
  Printf.printf "%8s %8s %14s %14s\n" "k" "a" "empirical" "bound";
  let ell = Ac.mean_size dist in
  List.iter
    (fun k ->
      List.iter
        (fun a ->
          let p = Ac.lemma6_drop_probability dist rng ~k ~a ~trials:4000 in
          Printf.printf "%8d %8.0f %14.4f %14.4f\n%!" k a p (3.0 *. ell /. a))
        [ 16.0; 64.0; 256.0 ])
    [ n / 16; n ]

(* ------------------------------------------------------------------ *)
(* Ablations                                                           *)
(* ------------------------------------------------------------------ *)

let run_ablations () =
  section "ABLATIONS — design choices called out in DESIGN.md";
  let networks = if full then 8 else 4 in
  let messages = if full then 400 else 200 in
  let n = if full then 1 lsl 15 else 1 lsl 13 in
  print_rows
    (Printf.sprintf
       "link-distribution exponent at n=%d, 2 links (Kleinberg brittleness; 1 is optimal)" n)
    (E.sweep_exponent ~n ~links:2 ~exponents:[ 0.0; 0.5; 0.8; 1.0; 1.2; 1.5; 2.0 ] ~networks
       ~messages ~seed ());
  print_rows (Printf.sprintf "one-sided vs two-sided greedy at n=%d, 4 links" n)
    (E.sweep_sides ~n ~links:4 ~networks ~messages ~seed ());
  subsection "the price of locality: greedy hops vs global shortest paths";
  Printf.printf "%8s %14s %14s %14s %14s\n" "links" "greedy" "optimal" "mean stretch"
    "max stretch";
  List.iter
    (fun r ->
      Printf.printf "%8d %14.2f %14.2f %14.2f %14.2f\n%!" r.E.stretch_links r.E.mean_greedy
        r.E.mean_optimal r.E.mean_stretch r.E.max_stretch)
    (E.sweep_stretch ~n:(if full then 1 lsl 13 else 1 lsl 12) ~pairs:(if full then 200 else 100)
       ~seed ());
  subsection "backtracking history length at 50% failed nodes (paper fixes 5)";
  Printf.printf "%10s %14s %14s\n" "history" "failed" "hops";
  List.iter
    (fun r ->
      Printf.printf "%10d %14.4f %14.2f\n%!" r.E.history r.E.result.E.failed_fraction
        r.E.result.E.mean_hops)
    (E.sweep_backtrack_history ~n ~fraction:0.5 ~histories:[ 1; 2; 5; 10; 20 ] ~networks
       ~messages ~seed ())

(* ------------------------------------------------------------------ *)
(* Extensions (Section 7 directions)                                   *)
(* ------------------------------------------------------------------ *)

let run_extensions () =
  section "EXTENSIONS — Section 7 directions, implemented";
  let networks = if full then 8 else 4 in
  let messages = if full then 400 else 200 in
  print_rows "line vs circle at matched parameters (no boundary on the circle)"
    (E.sweep_geometry ~n:(if full then 1 lsl 15 else 1 lsl 13) ~links:8 ~networks ~messages
       ~seed ());
  subsection
    "higher dimensions at ~4096 nodes, alpha = dims, 4 long links,\n\
     30% node failures, backtracking(5)";
  Printf.printf "%8s %10s %14s %14s\n" "dims" "nodes" "failed" "hops";
  List.iter
    (fun r ->
      Printf.printf "%8d %10d %14.4f %14.2f\n%!" r.E.dims r.E.nodes r.E.failed_nd
        r.E.mean_hops_nd)
    (E.sweep_dimensions ~links:4 ~death_p:0.3 ~networks ~messages ~seed ());
  subsection
    "Section 5 repair: terminate-strategy failures before and after link\n\
     regeneration over the survivors of a 40% failure wave";
  let rn = if full then 1 lsl 14 else 1 lsl 12 in
  let rlinks = int_of_float (Theory.lg rn) in
  let rrng = Rng.of_int (seed + 21) in
  let rnet = Network.build_ideal ~n:rn ~links:rlinks (Rng.split rrng) in
  let mask = Ftr_core.Failure.random_node_fraction rrng ~n:rn ~fraction:0.4 in
  let alive = Ftr_graph.Bitset.get mask in
  let failures = Ftr_core.Failure.of_node_mask mask in
  let before = ref 0 and trials = if full then 500 else 300 in
  for _ = 1 to trials do
    let live () = draw_alive rrng ~n:rn alive in
    let src = live () and dst = live () in
    if not (Route.delivered (Route.route ~failures rnet ~src ~dst)) then incr before
  done;
  let repaired = Heuristic.repair ~alive rnet (Rng.split rrng) in
  let m = Network.size repaired in
  let after = ref 0 in
  for _ = 1 to trials do
    let src = Rng.int rrng m and dst = Rng.int rrng m in
    if not (Route.delivered (Route.route repaired ~src ~dst)) then incr after
  done;
  Printf.printf "before repair: %.4f of searches fail (terminate strategy)\n"
    (float_of_int !before /. float_of_int trials);
  Printf.printf "after repair:  %.4f — the survivors are a full random graph again\n%!"
    (float_of_int !after /. float_of_int trials);
  subsection
    "adversarial failures (Section 4.3.4.2): kill the 2*log2(n) structural\n\
     in-neighbour positions of a target in both networks";
  let r =
    Ftr_core.Adversary.isolation_experiment
      ~n:(if full then 16384 else 4096)
      ~trials:(if full then 300 else 100)
      ~seed ()
  in
  Printf.printf "adversary budget: %d kills\n" r.Ftr_core.Adversary.kills;
  Printf.printf "geometric (Theorem 16) network: %6.4f searches to the target fail\n"
    r.Ftr_core.Adversary.geometric_failed;
  Printf.printf "randomized 1/d network:         %6.4f searches to the target fail\n%!"
    r.Ftr_core.Adversary.random_failed;
  Printf.printf
    "the deterministic structure betrays its links; the random graph hides them.\n%!";
  subsection
    "hub attack: kill 10% of nodes at random vs by descending in-degree\n\
     (backtracking searches; the 1/d overlay is egalitarian by design)";
  Printf.printf "%26s %10s %16s %16s\n" "network" "kills" "random failed" "targeted failed";
  let n = if full then 1 lsl 13 else 1 lsl 12 in
  let links = int_of_float (Theory.lg n) in
  let arng = Rng.of_int (seed + 11) in
  List.iter
    (fun (name, net) ->
      let r =
        Ftr_core.Adversary.degree_attack_experiment ~kills_fraction:0.1
          ~messages:(if full then 400 else 250)
          ~net ~seed:(seed + 12) ()
      in
      Printf.printf "%26s %10d %16.4f %16.4f\n%!" name r.Ftr_core.Adversary.attack_kills
        r.Ftr_core.Adversary.random_failed r.Ftr_core.Adversary.targeted_failed)
    [
      ("ideal 1/d", Network.build_ideal ~n ~links (Rng.split arng));
      ("heuristic construction", Heuristic.build ~n ~links (Rng.split arng));
    ];
  Printf.printf
    "flat in-degree leaves a targeted adversary no hubs to decapitate; the\n\
     heuristic's in-degree skew (see NETWORK ANATOMY) gives it slightly more.\n%!"

(* ------------------------------------------------------------------ *)
(* Network anatomy                                                     *)
(* ------------------------------------------------------------------ *)

let run_anatomy () =
  section "NETWORK ANATOMY — the structure the arguments lean on";
  let n = if full then 1 lsl 14 else 1 lsl 12 in
  let links = int_of_float (Theory.lg n) in
  let rng = Rng.of_int seed in
  Printf.printf "%26s %8s %8s %10s %9s %8s %8s %10s\n" "network" "out" "in(max)" "hotspot"
    "med.len" "p90" "p99" "boundary";
  List.iter
    (fun (name, net) ->
      let a = Ftr_core.Network_stats.anatomy net in
      Printf.printf "%26s %8.1f %8d %9.1fx %9.0f %8.0f %8.0f %9.2fx\n%!" name
        a.Ftr_core.Network_stats.mean_out_degree a.Ftr_core.Network_stats.max_in_degree
        a.Ftr_core.Network_stats.in_degree_hotspot a.Ftr_core.Network_stats.median_length
        a.Ftr_core.Network_stats.p90_length a.Ftr_core.Network_stats.p99_length
        a.Ftr_core.Network_stats.boundary_distortion)
    [
      ("ideal 1/d line", Network.build_ideal ~n ~links (Rng.split rng));
      ("ideal 1/d circle", Network.build_ring ~n ~links (Rng.split rng));
      ("heuristic construction", Heuristic.build ~n ~links (Rng.split rng));
      ("geometric base-2", Network.build_geometric ~n ~base:2);
      ("chord-like", Network.build_chordlike ~n ());
    ];
  Printf.printf
    "random 1/d networks spread in-degree (hotspot stays small) and their\n\
     link lengths span the whole line (median ~ sqrt n); only the line's\n\
     edge nodes reach measurably farther than its middle (boundary > 1).\n%!"

(* ------------------------------------------------------------------ *)
(* Byzantine blackholes (Section 7 security direction)                 *)
(* ------------------------------------------------------------------ *)

let run_byzantine () =
  section
    "SECURITY — Byzantine blackholes (Section 7): failed searches vs the\n\
     fraction of silently message-dropping nodes";
  let n = if full then 1 lsl 14 else 1 lsl 12 in
  let networks = if full then 6 else 3 in
  let messages = if full then 300 else 150 in
  Printf.printf "%10s %12s %12s %12s %14s\n" "byzantine" "naive" "retry" "backtrack"
    "wasted/search";
  let rows = Ftr_core.Byzantine.sweep ~n ~networks ~messages ~seed () in
  List.iter
    (fun r ->
      Printf.printf "%10.2f %12.4f %12.4f %12.4f %14.2f\n%!"
        r.Ftr_core.Byzantine.byzantine_fraction r.Ftr_core.Byzantine.naive_failed
        r.Ftr_core.Byzantine.retry_failed r.Ftr_core.Byzantine.backtrack_failed
        r.Ftr_core.Byzantine.retry_wasted)
    rows;
  print_string
    (Plot.render ~x_label:"byzantine fraction" ~y_label:"failed searches"
       [
         Plot.series ~glyph:'n' ~label:"naive"
           (List.map
              (fun r ->
                (r.Ftr_core.Byzantine.byzantine_fraction, r.Ftr_core.Byzantine.naive_failed))
              rows);
         Plot.series ~glyph:'r' ~label:"retry"
           (List.map
              (fun r ->
                (r.Ftr_core.Byzantine.byzantine_fraction, r.Ftr_core.Byzantine.retry_failed))
              rows);
         Plot.series ~glyph:'b' ~label:"retry+backtrack"
           (List.map
              (fun r ->
                (r.Ftr_core.Byzantine.byzantine_fraction, r.Ftr_core.Byzantine.backtrack_failed))
              rows);
       ]);
  Printf.printf
    "timeouts + per-search blacklists turn blackholes into crash failures;\n\
     with backtracking the overlay absorbs large Byzantine populations.\n%!";
  subsection "misrouting adversary (sabotage instead of dropping; no defence applies)";
  let rng = Rng.of_int (seed + 5) in
  let net = Network.build_ideal ~n ~links:(int_of_float (Theory.lg n)) (Rng.split rng) in
  Printf.printf "%10s %12s %14s %16s\n" "byzantine" "delivered" "mean hops" "sabotage hops";
  List.iter
    (fun fraction ->
      let mask = Ftr_core.Failure.random_node_fraction rng ~n ~fraction in
      let byzantine v = not (Ftr_graph.Bitset.get mask v) in
      let honest () = draw_alive rng ~n (fun v -> not (byzantine v)) in
      let delivered = ref 0 and hops = Summary.create () and sab = Summary.create () in
      let trials = if full then 400 else 200 in
      for _ = 1 to trials do
        let src = honest () and dst = honest () in
        let m = Ftr_core.Byzantine.route_misroute net ~byzantine ~src ~dst in
        if Ftr_core.Byzantine.delivered m then begin
          incr delivered;
          Summary.add_int hops (Ftr_core.Byzantine.hops m);
          Summary.add_int sab (Ftr_core.Byzantine.wasted m)
        end
      done;
      Printf.printf "%10.2f %12.3f %14.1f %16.2f\n%!" fraction
        (float_of_int !delivered /. float_of_int trials)
        (Summary.mean hops) (Summary.mean sab))
    [ 0.0; 0.05; 0.1; 0.2 ];
  Printf.printf
    "misrouting cannot be blacklisted (nothing observable fails), but greedy\n\
     progress is self-correcting: sabotage inflates hop counts long before it\n\
     defeats delivery.\n%!"

(* ------------------------------------------------------------------ *)
(* DHT layer (Section 2's hash-table functionality)                    *)
(* ------------------------------------------------------------------ *)

let run_dht () =
  section "HASH-TABLE FUNCTIONALITY — the Section 2 resource layer (ftr_dht)";
  let n = if full then 1 lsl 14 else 1 lsl 12 in
  let links = int_of_float (Theory.lg n) in
  let keys = if full then 2000 else 500 in
  let rng = Rng.of_int seed in
  let net = Network.build_ideal ~n ~links rng in
  List.iter
    (fun (replicas, fraction) ->
      let store = Ftr_dht.Store.create ~replicas net in
      for i = 0 to keys - 1 do
        Ftr_dht.Store.put store ~key:(Printf.sprintf "resource-%d" i) ~value:"payload"
      done;
      let mask = Ftr_core.Failure.random_node_fraction rng ~n ~fraction in
      let failures = Ftr_core.Failure.of_node_mask mask in
      let src = draw_alive rng ~n (Ftr_graph.Bitset.get mask) in
      let hits = ref 0 and hops = Summary.create () in
      for i = 0 to keys - 1 do
        let r =
          Ftr_dht.Store.routed_get ~failures ~strategy:(Route.Backtrack { history = 5 }) ~rng
            store ~src
            ~key:(Printf.sprintf "resource-%d" i)
        in
        if r.Ftr_dht.Store.value <> None then begin
          incr hits;
          Summary.add_int hops r.Ftr_dht.Store.hops
        end
      done;
      Printf.printf
        "replicas=%d, %2.0f%% nodes dead: %4d/%d resources retrievable, %.1f hops per hit\n%!"
        replicas (100.0 *. fraction) !hits keys (Summary.mean hops))
    [ (1, 0.0); (1, 0.3); (3, 0.3); (3, 0.5) ];
  subsection "load balance under Zipf-popular requests (Section 1's cost fairness)";
  let w = Ftr_dht.Workload.create ~universe:(keys / 2) () in
  let requests = if full then 4000 else 1500 in
  List.iter
    (fun (replicas, spread, label) ->
      let store = Ftr_dht.Store.create ~replicas net in
      Array.iter (fun k -> Ftr_dht.Store.put store ~key:k ~value:"v") (Ftr_dht.Workload.keys w);
      let report =
        Ftr_dht.Workload.measure_load ~spread ~store ~requests w (Rng.of_int (seed + 3))
      in
      Printf.printf
        "%28s: hit %.3f, %.1f hops, serving hotspot %5.1fx mean, forwarding hotspot %4.1fx\n%!"
        label report.Ftr_dht.Workload.hit_rate report.Ftr_dht.Workload.mean_hops
        report.Ftr_dht.Workload.serve_max_over_mean report.Ftr_dht.Workload.forward_max_over_mean)
    [
      (1, false, "1 replica");
      (4, false, "4 replicas, primary reads");
      (4, true, "4 replicas, spread reads");
    ];
  Printf.printf
    "salted-replica read spreading divides the hottest node's serving load\n\
     across the replica set without touching the routing layer.\n%!";
  subsection "data availability under churn (dynamic store + anti-entropy)";
  let line_size = 1024 in
  let engine = Ftr_sim.Engine.create () in
  let churn_rng = Rng.of_int (seed + 7) in
  let overlay =
    Ftr_p2p.Overlay.create ~line_size ~links:8 ~rng:(Rng.split churn_rng) engine
  in
  Ftr_p2p.Overlay.populate overlay ~positions:(List.init 128 (fun i -> i * 8));
  let dht = Ftr_dht.Dynamic.create ~replicas:2 ~line_size overlay in
  let pairs = 200 in
  for i = 0 to pairs - 1 do
    Ftr_dht.Dynamic.put dht ~from:0 ~key:(Printf.sprintf "pair-%d" i) ~value:"v"
  done;
  Ftr_sim.Engine.run engine;
  Printf.printf "%10s %14s %14s\n" "epoch" "stored pairs" "get success";
  for epoch = 1 to 5 do
    (* One epoch: crashes + joins, then an anti-entropy sweep. *)
    List.iter
      (fun pos ->
        if Rng.bernoulli churn_rng 0.08 && Ftr_p2p.Overlay.node_count overlay > 32 && pos <> 0
        then Ftr_p2p.Overlay.crash overlay ~pos)
      (Ftr_p2p.Overlay.live_positions overlay);
    for _ = 1 to 8 do
      let pos = Rng.int churn_rng line_size in
      if not (Ftr_p2p.Overlay.is_alive overlay pos) then
        Ftr_p2p.Overlay.join overlay ~pos ~via:0
    done;
    Ftr_sim.Engine.run engine;
    ignore (Ftr_dht.Dynamic.rebalance dht);
    Ftr_sim.Engine.run engine;
    let hits = ref 0 in
    for i = 0 to pairs - 1 do
      Ftr_dht.Dynamic.get dht ~from:0
        ~key:(Printf.sprintf "pair-%d" i)
        ~callback:(fun v -> if v <> None then incr hits)
    done;
    Ftr_sim.Engine.run engine;
    Printf.printf "%10d %14d %14.3f\n%!" epoch (Ftr_dht.Dynamic.stored_pairs dht)
      (float_of_int !hits /. float_of_int pairs)
  done;
  Printf.printf
    "two salted replicas plus per-epoch anti-entropy keep essentially all\n\
     pairs retrievable through repeated crash waves.\n%!"

(* ------------------------------------------------------------------ *)
(* Baseline comparison (Section 3)                                     *)
(* ------------------------------------------------------------------ *)

let run_baselines () =
  let n = if full then 1 lsl 14 else 1 lsl 12 in
  let side = int_of_float (sqrt (float_of_int n)) in
  let messages = if full then 2000 else 500 in
  section
    (Printf.sprintf
       "SECTION 3 BASELINES — mean hops between random pairs at ~%d nodes\n\
        (flooding reports messages per query, its actual cost)" n);
  let rng = Rng.of_int seed in
  let mean_hops f =
    let s = Summary.create () in
    for _ = 1 to messages do
      Summary.add_int s (f ())
    done;
    s
  in
  let line = Network.build_ideal ~n ~links:(int_of_float (Theory.lg n)) (Rng.split rng) in
  let ours =
    mean_hops (fun () ->
        Route.hops (Route.route line ~src:(Rng.int rng n) ~dst:(Rng.int rng n)))
  in
  let chord = Ftr_baselines.Chord.create_full ~n in
  let chord_s =
    mean_hops (fun () ->
        Ftr_baselines.Chord.route_hops chord ~src:(Rng.int rng n) ~key:(Rng.int rng n))
  in
  let kle = Ftr_baselines.Kleinberg.build ~long_links:4 ~side (Rng.split rng) in
  let m = side * side in
  let kle_s =
    mean_hops (fun () ->
        Ftr_baselines.Kleinberg.route_hops kle ~src:(Rng.int rng m) ~dst:(Rng.int rng m))
  in
  let lat = Ftr_baselines.Lattice.create ~dims:2 ~side in
  let lat_s =
    mean_hops (fun () ->
        Ftr_baselines.Lattice.route_hops lat ~src:(Rng.int rng m) ~dst:(Rng.int rng m))
  in
  let flood_net = Ftr_baselines.Flooding.random_overlay ~n ~degree:4 (Rng.split rng) in
  let flood_s =
    mean_hops (fun () ->
        let src = Rng.int rng n and dst = Rng.int rng n in
        if src = dst then 0
        else (Ftr_baselines.Flooding.search flood_net ~src ~dst).Ftr_baselines.Flooding.messages)
  in
  Printf.printf "%40s %12s %12s\n" "system" "mean" "max";
  let row name s unit_ =
    Printf.printf "%40s %12.1f %12.0f  (%s)\n%!" name (Summary.mean s) (Summary.max_value s) unit_
  in
  row (Printf.sprintf "this paper (line, %d links)" (Network.links line)) ours "hops";
  row "Chord finger tables" chord_s "hops";
  row (Printf.sprintf "Kleinberg 2-D grid (%dx%d, 4 links)" side side) kle_s "hops";
  row (Printf.sprintf "CAN-style lattice (%dx%d)" side side) lat_s "hops";
  let digits = int_of_float (Theory.lg n) in
  let plx = Ftr_baselines.Plaxton.create ~base:2 ~digits in
  let plx_s =
    mean_hops (fun () ->
        Ftr_baselines.Plaxton.route_hops plx ~src:(Rng.int rng n) ~dst:(Rng.int rng n))
  in
  row (Printf.sprintf "Tapestry-style prefix routing (2^%d ids)" digits) plx_s "hops";
  row "Gnutella-style flooding" flood_s "messages/query";
  subsection
    "failure comparison (the paper: \"our methods appear to perform as well as\n\
     theirs\"): failed-search fractions under the same node-failure model";
  Printf.printf "%8s %16s %16s %22s\n" "p(fail)" "chord r=1" "chord r=4" "this paper (backtrack)";
  let chord_rows =
    Ftr_baselines.Chord.failure_sweep ~n ~fractions:[ 0.0; 0.2; 0.4; 0.6; 0.8 ]
      ~messages:(if full then 500 else 200)
      ~seed ()
  in
  let ours_rows =
    E.figure6 ~n
      ~links:(int_of_float (Theory.lg n))
      ~networks:2
      ~messages:(if full then 500 else 200)
      ~fractions:[ 0.0; 0.2; 0.4; 0.6; 0.8 ] ~seed ()
  in
  List.iter2
    (fun c o ->
      Printf.printf "%8.2f %16.4f %16.4f %22.4f\n%!" c.Ftr_baselines.Chord.fail_fraction
        c.Ftr_baselines.Chord.failed_r1 c.Ftr_baselines.Chord.failed_r4
        o.E.backtrack.E.failed_fraction)
    chord_rows ours_rows

(* ------------------------------------------------------------------ *)
(* Dynamic protocol (Section 5 as a running system)                    *)
(* ------------------------------------------------------------------ *)

let run_churn () =
  section "DYNAMIC PROTOCOL — churn on the event-driven overlay (ftr_p2p)";
  let line_size = if full then 1 lsl 12 else 1 lsl 10 in
  let report =
    Ftr_p2p.Churn.run
      ~config:
        {
          Ftr_p2p.Churn.duration = (if full then 3000.0 else 1000.0);
          join_rate = 0.05;
          crash_rate = 0.03;
          leave_rate = 0.02;
          lookup_rate = 2.0;
          min_nodes = 16;
        }
      ~seed ~line_size ~initial_nodes:(line_size / 8) ~links:8 ()
  in
  let r = report in
  Printf.printf "final live nodes          %8d\n" r.Ftr_p2p.Churn.final_nodes;
  Printf.printf "joins / crashes / leaves  %8d / %d / %d\n" r.Ftr_p2p.Churn.joins
    r.Ftr_p2p.Churn.crashes r.Ftr_p2p.Churn.leaves;
  Printf.printf "user lookups issued       %8d\n" r.Ftr_p2p.Churn.lookups_issued;
  Printf.printf "lookup success rate       %8.4f\n" r.Ftr_p2p.Churn.success_rate;
  Printf.printf "mean hops (successful)    %8.2f\n" r.Ftr_p2p.Churn.mean_hops;
  Printf.printf "protocol messages         %8d\n" r.Ftr_p2p.Churn.messages;
  Printf.printf "probes / repairs          %8d / %d\n%!" r.Ftr_p2p.Churn.probes
    r.Ftr_p2p.Churn.repairs;
  subsection "join cost vs network size (the paper's scalability requirement)";
  Printf.printf "%12s %20s %20s\n" "line size" "messages/join" "lookups/join";
  List.iter
    (fun row ->
      Printf.printf "%12d %20.1f %20.1f\n%!" row.Ftr_p2p.Churn.line_size
        row.Ftr_p2p.Churn.mean_messages_per_join row.Ftr_p2p.Churn.mean_lookups_per_join)
    (Ftr_p2p.Churn.join_cost ~links:8 ~joins:(if full then 80 else 40)
       ~line_sizes:(if full then [ 512; 2048; 8192; 32768 ] else [ 512; 2048; 8192 ])
       ());
  Printf.printf
    "lookups per join stay flat (~1 + l + Poisson(l)); messages per join grow\n\
     only logarithmically with n — polylog maintenance, as Section 1 demands.\n%!";
  subsection "idle self-healing: crash 25% of nodes, run only stabilization";
  let engine = Ftr_sim.Engine.create () in
  let rng2 = Rng.of_int (seed + 9) in
  let overlay =
    Ftr_p2p.Overlay.create ~line_size:4096 ~links:8 ~rng:(Rng.split rng2) engine
  in
  Ftr_p2p.Overlay.populate overlay ~positions:(List.init 512 (fun i -> i * 8));
  List.iter
    (fun pos -> if Rng.bernoulli rng2 0.25 then Ftr_p2p.Overlay.crash overlay ~pos)
    (Ftr_p2p.Overlay.live_positions overlay);
  Ftr_p2p.Overlay.enable_stabilization ~period:5.0 ~checks_per_tick:64 ~until:3000.0 overlay;
  Ftr_sim.Engine.run ~until:3000.0 engine;
  let s = Ftr_p2p.Overlay.stats overlay in
  Printf.printf "probes sent %d, dead links repaired %d with zero lookup traffic\n" s.Ftr_p2p.Overlay.probes
    s.Ftr_p2p.Overlay.repairs;
  let positions = Array.of_list (Ftr_p2p.Overlay.live_positions overlay) in
  for _ = 1 to 200 do
    let from = positions.(Rng.int rng2 (Array.length positions)) in
    Ftr_p2p.Overlay.lookup overlay ~from ~target:(Rng.int rng2 4096) ()
  done;
  Ftr_sim.Engine.run engine;
  Printf.printf "post-healing lookups: %d/%d succeed\n%!" s.Ftr_p2p.Overlay.lookups_ok
    (s.Ftr_p2p.Overlay.lookups_ok + s.Ftr_p2p.Overlay.lookups_failed);
  subsection "recovery curve: 30% mass crash at t=0, stabilization only";
  let recovery =
    Ftr_p2p.Recovery.run
      ~line_size:(if full then 8192 else 4096)
      ~kill_fraction:0.3 ~period:10.0 ~checks_per_tick:16
      ~samples:(if full then 14 else 10)
      ~seed ()
  in
  Printf.printf "killed %d of %d nodes at t=0\n" recovery.Ftr_p2p.Recovery.killed
    recovery.Ftr_p2p.Recovery.initial_nodes;
  Printf.printf "%8s %10s %18s %10s %10s\n" "time" "success" "probes/lookup" "hops" "repairs";
  List.iter
    (fun sm ->
      Printf.printf "%8.0f %10.3f %18.2f %10.2f %10d\n%!" sm.Ftr_p2p.Recovery.time
        sm.Ftr_p2p.Recovery.success_rate sm.Ftr_p2p.Recovery.probes_per_lookup
        sm.Ftr_p2p.Recovery.mean_hops sm.Ftr_p2p.Recovery.repairs_so_far)
    recovery.Ftr_p2p.Recovery.samples;
  print_string
    (Plot.render ~x_label:"virtual time" ~y_label:"probes per lookup"
       [
         Plot.series ~glyph:'p' ~label:"repair burden"
           (List.map
              (fun sm -> (sm.Ftr_p2p.Recovery.time, sm.Ftr_p2p.Recovery.probes_per_lookup))
              recovery.Ftr_p2p.Recovery.samples);
       ]);
  Printf.printf
    "lookups stay ~100%% successful throughout; the probe overhead they pay\n\
     decays as stabilization heals the damage — the self-healing curve.\n%!";
  subsection "lookup health vs churn intensity";
  Printf.printf "%14s %10s %10s %12s %14s\n" "events/unit" "success" "hops" "repairs"
    "probes/lookup";
  List.iter
    (fun row ->
      let rr = row.Ftr_p2p.Recovery.report in
      Printf.printf "%14.2f %10.4f %10.2f %12d %14.2f\n%!"
        row.Ftr_p2p.Recovery.events_per_unit rr.Ftr_p2p.Churn.success_rate
        rr.Ftr_p2p.Churn.mean_hops rr.Ftr_p2p.Churn.repairs
        (float_of_int rr.Ftr_p2p.Churn.probes /. float_of_int (max 1 rr.Ftr_p2p.Churn.lookups_issued)))
    (Ftr_p2p.Recovery.churn_sweep
       ~duration:(if full then 1000.0 else 500.0)
       ~rates:[ 0.05; 0.2; 0.8; 2.0 ] ~seed ());
  Printf.printf
    "success holds near 100%% across a 40x churn range; what grows is the\n\
     repair traffic — maintenance cost is where churn bites, not lookups.\n%!"

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
  bench "table1 grid (9 sections)"
    (fun () ->
      E.table1_grid ~jobs:1 ~ns:[ 256; 1024; 4096 ] ~big:n ~networks:2 ~messages:100 ~trials:100
        ~seed ())
    (fun () ->
      E.table1_grid ~jobs ~ns:[ 256; 1024; 4096 ] ~big:n ~networks:2 ~messages:100 ~trials:100
        ~seed ());
  bench "figure5 networks"
    (fun () -> E.figure5_par ~jobs:1 ~networks ~n ~links:12 ~seed ())
    (fun () -> E.figure5_par ~jobs ~networks ~n ~links:12 ~seed ());
  bench "figure6 (fractions x nets)"
    (fun () ->
      E.figure6_par ~jobs:1 ~n ~networks:2 ~messages ~fractions:[ 0.0; 0.3; 0.6 ] ~seed ())
    (fun () ->
      E.figure6_par ~jobs ~n ~networks:2 ~messages ~fractions:[ 0.0; 0.3; 0.6 ] ~seed ());
  let open Ftr_obs.Json in
  let report =
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
      ]
  in
  write_report "BENCH_exec.json" report
    ~asserts:(List.rev_map (fun (name, _, _, same) -> (name ^ " output_identical", same)) !rows)

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
  let r1 = D.run { cfg with D.jobs = Some 1 } in
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
          ("speedup", Float (rate rj /. rate r1));
          ("output_identical", Bool same);
        ])

(* ------------------------------------------------------------------ *)
(* Lint: flow-stage analyzer throughput, cold vs warm cache            *)
(* ------------------------------------------------------------------ *)

(* The flow stage (D1-D4) is the expensive lint pass: it loads every
   .cmt, builds per-function CFGs and runs the dataflow engine to
   fixpoint. This section times it over the real tree twice against one
   cache directory — the cold run analyzes every unit, the warm rerun
   must analyze zero — and asserts the jobs-invariance contract (the
   rendered finding stream at --jobs 1 and --jobs 4 must agree byte for
   byte). The numbers land in BENCH_lint.json for machines to read. *)
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
  let dirs = [ "lib"; "bin"; "bench" ] in
  match root with
  | None ->
      section "LINT — skipped: no dune-project above the working directory";
      write_report "BENCH_lint.json" Ftr_obs.Json.(Obj [ ("skipped", Bool true) ])
  | Some root ->
      section
        "LINT — flow-stage analyzer (D1-D4): cold vs warm incremental cache\n\
         the finding stream is jobs-invariant by contract; the cache only moves the wall clock";
      let cache = Filename.temp_file "ftr_lint_bench" "" in
      Sys.remove cache;
      Unix.mkdir cache 0o755;
      let ((cold, cs), t_cold), ((warm, ws), t_warm) =
        Fun.protect ~finally:(fun () ->
            Array.iter (fun f -> Sys.remove (Filename.concat cache f)) (Sys.readdir cache);
            Unix.rmdir cache)
        @@ fun () ->
        let analyze () = timed (fun () -> Flow_driver.analyze ~cache_dir:cache ~root ~dirs ()) in
        let cold = analyze () in
        (cold, analyze ())
      in
      let render fs =
        String.concat "\n" (List.map (fun (f, _) -> Ftr_lint.Finding.to_string f) fs)
      in
      let j1, _ = Flow_driver.analyze ~jobs:1 ~root ~dirs () in
      let j4, _ = Flow_driver.analyze ~jobs:4 ~root ~dirs () in
      let jobs_identical = String.equal (render j1) (render j4) in
      let warm_identical = String.equal (render cold) (render warm) in
      Printf.printf "%28s: %d units, %d analyzed, %d findings, %7.2f s\n%!" "cold cache"
        cs.Flow_driver.fl_units cs.Flow_driver.fl_analyzed (List.length cold) t_cold;
      Printf.printf "%28s: %d units, %d analyzed, %d cached, %7.2f s, speedup %5.2fx%s\n%!"
        "warm cache" ws.Flow_driver.fl_units ws.Flow_driver.fl_analyzed ws.Flow_driver.fl_cached
        t_warm (t_cold /. t_warm)
        (if warm_identical && ws.Flow_driver.fl_analyzed = 0 then ""
         else "  [CACHE CONTRACT BROKEN]");
      Printf.printf "%28s: --jobs 1 vs --jobs 4 streams %s\n%!" "jobs invariance"
        (if jobs_identical then "identical" else "DIFFER");
      write_report "BENCH_lint.json"
        ~asserts:
          [
            ("jobs_identical", jobs_identical);
            ("warm_identical", warm_identical);
            ("warm_analyzed = 0", ws.Flow_driver.fl_analyzed = 0);
          ]
        Ftr_obs.Json.(
          Obj
            [
              ("units", Int cs.Flow_driver.fl_units);
              ("findings", Int (List.length cold));
              ("cold_analyzed", Int cs.Flow_driver.fl_analyzed);
              ("warm_analyzed", Int ws.Flow_driver.fl_analyzed);
              ("warm_cached", Int ws.Flow_driver.fl_cached);
              ("cold_seconds", Float t_cold);
              ("warm_seconds", Float t_warm);
              ("warm_speedup", Float (t_cold /. t_warm));
              ("jobs_identical", Bool jobs_identical);
              ("warm_identical", Bool warm_identical);
            ])

(* ------------------------------------------------------------------ *)
(* Route throughput: the flat-CSR router                               *)
(* ------------------------------------------------------------------ *)

(* Hops/second of the production router on two streams over one
   network: any pair with no failures (Terminate), and live pairs under
   30% node failures (Backtrack, 5-node history). Telemetry is off so
   the number is the router's, not the obs layer's (the tracing section
   measures that). The outcomes of these streams are pinned as digests
   in test/test_csr.ml, recorded from the pre-refactor router. *)
let run_route_throughput () =
  let n = if full then 1 lsl 14 else 1 lsl 13 in
  let links = 14 in
  let messages = if smoke then 3_000 else if full then 60_000 else 30_000 in
  section
    (Printf.sprintf
       "ROUTE THROUGHPUT — flat-CSR router\n(n=%d, links=%d, %d messages per timing)" n links
       messages);
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
    let hops, dt = timed (fun () -> route_pairs messages) in
    let csr_hps = float_of_int hops /. dt in
    Printf.printf "flat CSR router:  %12.0f hops/s\n%!" csr_hps;
    Ftr_obs.Json.(Obj [ ("name", String name); ("csr_hops_per_second", Float csr_hps) ])
  in
  let healthy =
    run "healthy_terminate" ~failures:Ftr_core.Failure.none ~strategy:Route.Terminate ~pick:any
  in
  let faulty =
    run "fail30_backtrack5" ~failures ~strategy:(Route.Backtrack { history = 5 }) ~pick:live_pick
  in
  write_report "BENCH_route.json"
    Ftr_obs.Json.(
      Obj
        [
          ("n", Int n);
          ("links", Int links);
          ("messages", Int messages);
          ("full_scale", Bool full);
          ("smoke", Bool smoke);
          ("sections", List [ healthy; faulty ]);
        ])

(* ------------------------------------------------------------------ *)
(* Scale: compact CSR footprint, streaming build, batch routing        *)
(* ------------------------------------------------------------------ *)

(* The gate for the int32/Bigarray core: per network size, streaming
   construction throughput, bytes/node against the 8-byte int-array
   baseline the refactor replaced, batch route throughput on the exec
   pool, jobs-invariance of the merged outcome vector (--jobs 1/2/4 and
   FTR_EXEC_SEQ=1 must agree byte for byte), and snapshot save + mmap
   load round-trip timing. One JSON row per size lands in
   BENCH_scale.json (docs/MEMORY_LAYOUT.md). *)
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
  let rows =
    List.map
      (fun n ->
        subsection (Printf.sprintf "n = %d" n);
        let rng = Rng.of_int (seed + n) in
        let net, build_dt = timed (fun () -> Network.build_ideal ~n ~links (Rng.split rng)) in
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
        Printf.printf "build: %.3f s (%.0f nodes/s), %d edges\n" build_dt
          (float_of_int n /. build_dt) edges;
        Printf.printf "footprint: %.1f bytes/node (int-array baseline %.1f, ratio %.2f)\n"
          (per_node bytes_int32) (per_node bytes_int_array) ratio;
        (* Batch routing: healthy Terminate for throughput; the identity
           check below re-routes the same pairs under failures with the
           seeded Random_reroute strategy, the case where per-route rng
           derivation could diverge across schedules. *)
        let pair_rng = Rng.of_int (seed + 79) in
        let pairs =
          Array.init messages (fun _ -> (Rng.int pair_rng n, Rng.int pair_rng n))
        in
        let batch_hps ~jobs =
          let outcomes, dt = timed (fun () -> Route_batch.run ~jobs net ~pairs) in
          float_of_int (Array.fold_left (fun acc o -> acc + Route.hops o) 0 outcomes) /. dt
        in
        let hps1 = batch_hps ~jobs:1 in
        let jobs = Ftr_exec.Pool.default_jobs () in
        let hps = batch_hps ~jobs in
        Printf.printf "batch route: %12.0f hops/s (jobs=1)  %12.0f hops/s (jobs=%d)\n" hps1
          hps jobs;
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
              ("build_nodes_per_second", Float (float_of_int n /. build_dt));
              ("bytes_per_node_int32", Float (per_node bytes_int32));
              ("bytes_per_node_int_array", Float (per_node bytes_int_array));
              ("footprint_ratio", Float ratio);
              ("batch_hops_per_second_jobs1", Float hps1);
              ("batch_hops_per_second", Float hps);
              ("jobs", Int jobs);
              ("outcomes_identical_across_jobs", Bool identical);
              ("snapshot_bytes", Int snap_bytes);
              ("snapshot_save_seconds", Float save_dt);
              ("snapshot_load_seconds", Float load_dt);
            ],
          (Printf.sprintf "n=%d outcomes_identical_across_jobs" n, identical) ))
      sizes
  in
  write_report "BENCH_scale.json" ~asserts:(List.map snd rows)
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
      Test.make ~name:"xoshiro-next" (Staged.stage (fun () -> ignore (Rng.bits64 rng)));
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
  Printf.printf "scale: %s (set FTR_BENCH_FULL=1 for paper scale)\n%!"
    (if full then "FULL (paper scale)" else "default (reduced)");
  run_section "bench.figure5" run_figure5;
  run_section "bench.figure6" run_figure6;
  run_section "bench.figure7" run_figure7;
  run_section "bench.table1" run_table1;
  run_section "bench.route" run_route_throughput;
  run_section "bench.scale" run_scale;
  run_section "bench.tracing" run_tracing;
  run_section "bench.exec" run_exec;
  run_section "bench.serve" run_serve;
  run_section "bench.lint" run_lint;
  run_section "bench.lower_bound" run_lower_bound_machinery;
  run_section "bench.ablations" run_ablations;
  run_section "bench.extensions" run_extensions;
  run_section "bench.anatomy" run_anatomy;
  run_section "bench.byzantine" run_byzantine;
  run_section "bench.dht" run_dht;
  run_section "bench.baselines" run_baselines;
  run_section "bench.churn" run_churn;
  run_section "bench.micro" run_micro;
  csv "table1_and_sweeps" ~header:[ "row"; "param"; "measured"; "bound"; "ratio" ]
    ~rows:(List.rev !table1_csv_rows);
  (* Closing metrics snapshot: one line of JSON on stdout, and a file next
     to the CSVs when FTR_BENCH_CSV is set. *)
  let snapshot = Ftr_obs.Export.json_snapshot () in
  Printf.printf "\n[obs] metrics snapshot: %s\n" (Ftr_obs.Json.to_string snapshot);
  (match csv_dir with
  | Some dir ->
      mkdir_p dir;
      write_report (Filename.concat dir "metrics.json") snapshot
  | None -> ());
  Printf.printf "\ntotal wall time: %.1f s\n%!" (Unix.gettimeofday () -. t0)
