module Rng = Ftr_prng.Rng
module Summary = Ftr_stats.Summary
module Gof = Ftr_stats.Gof
module Pool = Ftr_exec.Pool

(* The figure drivers run their per-network work as [Pool.map] jobs. The
   root generator only ever splits, so the jobs' generators are split up
   front in the order a sequential loop would split them: every stream,
   and so every row, is the same for any [?jobs] and under
   [FTR_EXEC_SEQ=1]. *)
let split_n rng count = Array.init count (fun _ -> Rng.split rng)

(* Shared measurement kernel: route [messages] messages between uniformly
   random live (src, dst) pairs and summarise failure fraction and the
   delivery time of successful searches, as in Section 6. *)

type measurement = {
  failed_fraction : float;
  mean_hops : float;
  hops_ci95 : float;
  mean_path_hops : float;
  messages : int;
}

let pick_live rng failures ~n =
  let rec attempt tries =
    if tries > 1_000_000 then invalid_arg "Experiment.pick_live: no live node found";
    let v = Rng.int rng n in
    if Failure.node_alive failures v then v else attempt (tries + 1)
  in
  attempt 0

(* A (src, dst) pair of live nodes, distinct unless a thousand redraws
   found no other. *)
let live_pair rng failures ~n =
  let src = pick_live rng failures ~n in
  let rec dst_loop tries =
    let d = pick_live rng failures ~n in
    if d <> src || tries > 1000 then d else dst_loop (tries + 1)
  in
  (src, dst_loop 0)

let measure ?(failures = Failure.none) ?(side = Route.Two_sided) ?(strategy = Route.Terminate)
    ?pairs ~messages ~rng net =
  let n = Network.size net in
  let hops = Summary.create () in
  let path_hops = Summary.create () in
  let failed = ref 0 in
  let pair i = match pairs with Some p -> p.(i) | None -> live_pair rng failures ~n in
  (* One scratch for the whole batch keeps backtracking runs off the
     minor heap (see {!Route.scratch}). *)
  let scratch = Route.scratch net in
  for i = 0 to messages - 1 do
    let src, dst = pair i in
    let path = ref [ src ] in
    let on_hop v = path := v :: !path in
    match Route.route ~failures ~side ~strategy ~rng ~on_hop ~scratch net ~src ~dst with
    | Route.Delivered { hops = h } ->
        Summary.add_int hops h;
        Summary.add_int path_hops (Route.loop_erased_length (List.rev !path))
    | Route.Failed _ -> incr failed
  done;
  {
    failed_fraction = float_of_int !failed /. float_of_int messages;
    mean_hops = Summary.mean hops;
    hops_ci95 = Summary.ci95_halfwidth hops;
    mean_path_hops = Summary.mean path_hops;
    messages;
  }

let random_live_pairs rng failures ~n ~messages =
  Array.init messages (fun _ -> live_pair rng failures ~n)

let average ms =
  let failed = Summary.create () and hops = Summary.create () and path = Summary.create () in
  List.iter
    (fun m ->
      Summary.add failed m.failed_fraction;
      if not (Float.is_nan m.mean_hops) then begin
        Summary.add hops m.mean_hops;
        Summary.add path m.mean_path_hops
      end)
    ms;
  {
    failed_fraction = Summary.mean failed;
    mean_hops = Summary.mean hops;
    hops_ci95 = Summary.ci95_halfwidth hops;
    mean_path_hops = Summary.mean path;
    messages = List.fold_left (fun acc m -> acc + m.messages) 0 ms;
  }

(* ------------------------------------------------------------------ *)
(* Figure 5: link-length distribution of the Section 5 heuristic.      *)
(* ------------------------------------------------------------------ *)

type figure5_point = { length : int; derived : float; ideal : float; error : float }

type figure5_result = {
  points : figure5_point list;
  max_abs_error : float;
  max_abs_error_length : int;
  total_variation : float;
  networks : int;
}

(* Log-spaced report lengths 1, 2, 4, ..., plus 3 and 6 for detail at the
   head of the curve where the paper's largest error sits. *)
let report_lengths ~n =
  let rec powers acc v = if v >= n then List.rev acc else powers (v :: acc) (v * 2) in
  List.sort_uniq Int.compare (3 :: 6 :: powers [] 1)

let figure5 ?(replacement = Heuristic.Proportional) ?(networks = 10) ?jobs ~n ~links ~seed () =
  if networks < 1 then invalid_arg "Experiment.figure5: networks must be >= 1";
  let rngs = split_n (Rng.of_int seed) networks in
  let pmfs =
    Pool.map ?jobs ~count:networks (fun i ->
        Heuristic.length_distribution (Heuristic.build ~replacement ~n ~links rngs.(i)))
  in
  let sum = Array.make n 0.0 in
  Array.iter
    (fun pmf ->
      for d = 0 to n - 1 do
        sum.(d) <- sum.(d) +. pmf.(d)
      done)
    pmfs;
  let derived = Array.map (fun s -> s /. float_of_int networks) sum in
  let ideal = Heuristic.ideal_distribution ~n () in
  let max_abs_error, max_abs_error_length = Gof.max_abs_error ~empirical:derived ~model:ideal in
  let total_variation = Gof.total_variation ~empirical:derived ~model:ideal in
  let points =
    List.map
      (fun d ->
        { length = d; derived = derived.(d); ideal = ideal.(d); error = derived.(d) -. ideal.(d) })
      (report_lengths ~n)
  in
  { points; max_abs_error; max_abs_error_length; total_variation; networks }

(* ------------------------------------------------------------------ *)
(* Figure 6: the three stuck-message strategies under node failures.   *)
(* ------------------------------------------------------------------ *)

type figure6_row = {
  fail_fraction : float;
  terminate : measurement;
  reroute : measurement;
  backtrack : measurement;
}

let figure6 ?(n = 1 lsl 15) ?links ?(networks = 10) ?(messages = 100)
    ?(fractions = [ 0.0; 0.1; 0.2; 0.3; 0.4; 0.5; 0.6; 0.7; 0.8 ]) ?jobs ~seed () =
  let links = match links with Some l -> l | None -> int_of_float (Theory.lg n) in
  let fractions = Array.of_list fractions in
  (* One job per (fraction, network), fraction-major: it builds its own
     overlay, failure mask and traffic, then routes the identical traffic
     under all three strategies (the paper's variance-reduction pairing). *)
  let rngs = split_n (Rng.of_int seed) (Array.length fractions * networks) in
  let results =
    Pool.map ?jobs ~count:(Array.length rngs) (fun j ->
        let fraction = fractions.(j / networks) and net_rng = rngs.(j) in
        let net = Network.build_ideal ~n ~links net_rng in
        let mask = Failure.random_node_fraction net_rng ~n ~fraction in
        let failures = Failure.of_node_mask mask in
        let pairs = random_live_pairs net_rng failures ~n ~messages in
        Array.map
          (fun strategy -> measure ~failures ~strategy ~pairs ~messages ~rng:net_rng net)
          [|
            Route.Terminate;
            Route.Random_reroute { attempts = 1 };
            Route.Backtrack { history = 5 };
          |])
  in
  List.mapi
    (fun fi fraction ->
      let result si = average (List.init networks (fun k -> results.((fi * networks) + k).(si))) in
      { fail_fraction = fraction; terminate = result 0; reroute = result 1; backtrack = result 2 })
    (Array.to_list fractions)

(* ------------------------------------------------------------------ *)
(* Figure 7: ideal vs heuristically constructed network.               *)
(* ------------------------------------------------------------------ *)

type figure7_row = { death_p : float; ideal_failed : float; constructed_failed : float }

let figure7 ?(n = 16384) ?links ?(networks = 10) ?(messages = 1000)
    ?(probs = [ 0.0; 0.1; 0.2; 0.3; 0.4; 0.5; 0.6; 0.7; 0.8; 0.9 ]) ?jobs ~seed () =
  let links = match links with Some l -> l | None -> int_of_float (Theory.lg n) in
  let rng = Rng.of_int seed in
  (* Build the networks once and reuse them across failure probabilities,
     as the paper's "10 iterations" does: [networks] build splits, then
     probs x networks measure splits, prob-major. The networks are only
     read by the measure jobs, and [measure] allocates its own scratch. *)
  let build_rngs = split_n rng networks in
  let nets =
    Pool.map ?jobs ~count:networks (fun i ->
        let r = build_rngs.(i) in
        (Network.build_ideal ~n ~links r, Heuristic.build ~n ~links r))
  in
  let probs = Array.of_list probs in
  let measure_rngs = split_n rng (Array.length probs * networks) in
  let failed =
    Pool.map ?jobs ~count:(Array.length measure_rngs) (fun j ->
        let r = measure_rngs.(j) and ideal_net, constructed_net = nets.(j mod networks) in
        let fraction = Float.min probs.(j / networks) 0.99 in
        let mask = Failure.random_node_fraction r ~n ~fraction in
        let failures = Failure.of_node_mask mask in
        let pairs = random_live_pairs r failures ~n ~messages in
        let mi = measure ~failures ~pairs ~messages ~rng:r ideal_net in
        let mc = measure ~failures ~pairs ~messages ~rng:r constructed_net in
        (mi.failed_fraction, mc.failed_fraction))
  in
  List.mapi
    (fun pi death_p ->
      let ideal_s = Summary.create () and constructed_s = Summary.create () in
      for k = 0 to networks - 1 do
        let fi, fc = failed.((pi * networks) + k) in
        Summary.add ideal_s fi;
        Summary.add constructed_s fc
      done;
      { death_p; ideal_failed = Summary.mean ideal_s; constructed_failed = Summary.mean constructed_s })
    (Array.to_list probs)

(* ------------------------------------------------------------------ *)
(* Table 1: scaling sweeps against the closed-form bounds.             *)
(* ------------------------------------------------------------------ *)

type scaling_row = {
  label : string;
  parameter : float; (* the swept quantity: n, links, p, ... *)
  measured : float;
  bound : float;
  ratio : float; (* measured / bound; <= 1 certifies the upper bound *)
}

let row ~label ~parameter ~measured ~bound =
  { label; parameter; measured; bound; ratio = measured /. bound }

let mean_delivery ?failures ?side ?strategy ~messages ~rng net =
  (measure ?failures ?side ?strategy ~messages ~rng net).mean_hops

(* The mean of [f r] over [networks] generators [r] split from [rng] in
   turn: one sample per independently built network. *)
let mean_over ~networks rng f =
  let s = Summary.create () in
  for _ = 1 to networks do
    Summary.add s (f (Rng.split rng))
  done;
  Summary.mean s

let sweep_single_link ?(ns = [ 256; 1024; 4096; 16384 ]) ?(networks = 5) ?(messages = 200) ~seed
    () =
  let rng = Rng.of_int seed in
  List.map
    (fun n ->
      let measured =
        mean_over ~networks rng (fun r ->
            mean_delivery ~messages ~rng:r (Network.build_ideal ~n ~links:1 r))
      in
      row ~label:"single-link" ~parameter:(float_of_int n) ~measured
        ~bound:(Theory.upper_single_link n))
    ns

let sweep_multi_link ?(n = 16384) ?(links_list = [ 1; 2; 4; 8; 14 ]) ?(networks = 5)
    ?(messages = 200) ~seed () =
  let rng = Rng.of_int seed in
  List.map
    (fun links ->
      let measured =
        mean_over ~networks rng (fun r ->
            mean_delivery ~messages ~rng:r (Network.build_ideal ~n ~links r))
      in
      row ~label:"multi-link" ~parameter:(float_of_int links) ~measured
        ~bound:(Theory.upper_multi_link ~links n))
    links_list

let sweep_deterministic ?(ns = [ 256; 1024; 4096; 16384 ]) ?(base = 2) ?(messages = 200) ~seed ()
    =
  let rng = Rng.of_int seed in
  List.map
    (fun n ->
      let net = Network.build_deterministic ~n ~base in
      row ~label:(Printf.sprintf "deterministic-base-%d" base) ~parameter:(float_of_int n)
        ~measured:(mean_delivery ~messages ~rng net)
        ~bound:(Theory.upper_deterministic ~base n))
    ns

let sweep_link_failure ?(n = 16384) ?links ?(probs = [ 1.0; 0.8; 0.6; 0.4; 0.2 ])
    ?(networks = 5) ?(messages = 200) ~seed () =
  let links = match links with Some l -> l | None -> int_of_float (Theory.lg n) in
  let rng = Rng.of_int seed in
  List.map
    (fun present_p ->
      let measured =
        mean_over ~networks rng (fun r ->
            let net = Network.build_ideal ~n ~links r in
            let failures = Failure.of_link_mask (Failure.random_link_mask r net ~present_p) in
            mean_delivery ~failures ~messages ~rng:r net)
      in
      row ~label:"link-failure" ~parameter:present_p ~measured
        ~bound:(Theory.upper_link_failure ~links ~present_p n))
    probs

let sweep_geometric_link_failure ?(n = 16384) ?(base = 2) ?(probs = [ 1.0; 0.8; 0.6; 0.4 ])
    ?(networks = 5) ?(messages = 200) ~seed () =
  let rng = Rng.of_int seed in
  List.map
    (fun present_p ->
      let measured =
        mean_over ~networks rng (fun r ->
            let net = Network.build_geometric ~n ~base in
            let failures = Failure.of_link_mask (Failure.random_link_mask r net ~present_p) in
            mean_delivery ~failures ~messages ~rng:r net)
      in
      row ~label:(Printf.sprintf "geometric-base-%d" base) ~parameter:present_p ~measured
        ~bound:(Theory.upper_geometric_link_failure ~base ~present_p n))
    probs

let sweep_binomial_nodes ?(n = 16384) ?(links = 1) ?(probs = [ 1.0; 0.7; 0.5; 0.3 ])
    ?(networks = 5) ?(messages = 200) ~seed () =
  let rng = Rng.of_int seed in
  List.map
    (fun present_p ->
      let measured =
        mean_over ~networks rng (fun r ->
            mean_delivery ~messages ~rng:r (Network.build_binomial ~n ~links ~present_p r))
      in
      (* Theorem 17: the bound is the failure-free O(H_n²), independent of
         p — absent nodes just shrink the random graph. *)
      row ~label:"binomial-nodes" ~parameter:present_p ~measured
        ~bound:(Theory.upper_single_link n))
    probs

let sweep_node_failure ?(n = 16384) ?links ?(probs = [ 0.0; 0.2; 0.4; 0.6 ]) ?(networks = 5)
    ?(messages = 200) ~seed () =
  let links = match links with Some l -> l | None -> int_of_float (Theory.lg n) in
  let rng = Rng.of_int seed in
  List.map
    (fun death_p ->
      let measured =
        mean_over ~networks rng (fun r ->
            let net = Network.build_ideal ~n ~links r in
            let failures = Failure.of_node_mask (Failure.bernoulli_node_mask r ~n ~death_p) in
            (* Theorem 18 concerns delivery time; measure hops of successful
               searches under the backtracking strategy so most messages
               make it through. *)
            mean_delivery ~failures ~strategy:(Route.Backtrack { history = 5 }) ~messages ~rng:r
              net)
      in
      row ~label:"node-failure" ~parameter:death_p ~measured
        ~bound:(Theory.upper_node_failure ~links ~death_p n))
    probs

(* Lower-bound row: single-point one-sided simulation vs the Theorem 10
   leading term. ratio >= 1 supports the lower bound. *)
let sweep_lower_bound ?(ns = [ 1024; 4096; 16384; 65536 ]) ?(links = 4) ?(trials = 300) ~seed ()
    =
  let rng = Rng.of_int seed in
  List.map
    (fun n ->
      let dist = Aggregate_chain.harmonic ~links ~max_offset:(n - 1) in
      let steps = ref 0 in
      for _ = 1 to trials do
        steps :=
          !steps + Aggregate_chain.simulate_single_point dist rng ~start:(1 + Rng.int rng n)
      done;
      let measured = float_of_int !steps /. float_of_int trials in
      row ~label:"lower-bound-one-sided" ~parameter:(float_of_int n) ~measured
        ~bound:(Theory.lower_one_sided ~links:(2 * links) n))
    ns

(* Ablation: Kleinberg's brittleness claim — exponents away from 1 hurt. *)
let sweep_exponent ?(n = 16384) ?(links = 2)
    ?(exponents = [ 0.0; 0.5; 0.8; 1.0; 1.2; 1.5; 2.0 ]) ?(networks = 5) ?(messages = 200) ~seed
    () =
  let rng = Rng.of_int seed in
  List.map
    (fun exponent ->
      let measured =
        mean_over ~networks rng (fun r ->
            mean_delivery ~messages ~rng:r (Network.build_ideal ~exponent ~n ~links r))
      in
      row ~label:"exponent" ~parameter:exponent ~measured
        ~bound:(Theory.upper_multi_link ~links n))
    exponents

(* Ablation: one-sided vs two-sided greedy on the same networks. *)
let sweep_sides ?(n = 16384) ?(links = 4) ?(networks = 5) ?(messages = 200) ~seed () =
  let rng = Rng.of_int seed in
  let one = Summary.create () and two = Summary.create () in
  for _ = 1 to networks do
    let r = Rng.split rng in
    let net = Network.build_ideal ~n ~links r in
    Summary.add one (mean_delivery ~side:Route.One_sided ~messages ~rng:r net);
    Summary.add two (mean_delivery ~side:Route.Two_sided ~messages ~rng:r net)
  done;
  [
    row ~label:"one-sided" ~parameter:1.0 ~measured:(Summary.mean one)
      ~bound:(Theory.upper_multi_link ~links n);
    row ~label:"two-sided" ~parameter:2.0 ~measured:(Summary.mean two)
      ~bound:(Theory.upper_multi_link ~links n);
  ]

(* Ablation: backtracking history length at a fixed failure fraction. *)
type backtrack_row = { history : int; result : measurement }

let sweep_backtrack_history ?(n = 1 lsl 14) ?links ?(fraction = 0.5)
    ?(histories = [ 1; 2; 5; 10; 20 ]) ?(networks = 5) ?(messages = 200) ~seed () =
  let links = match links with Some l -> l | None -> int_of_float (Theory.lg n) in
  let rng = Rng.of_int seed in
  List.map
    (fun history ->
      let result =
        average
          (List.init networks (fun _ ->
               let r = Rng.split rng in
               let net = Network.build_ideal ~n ~links r in
               let failures = Failure.of_node_mask (Failure.random_node_fraction r ~n ~fraction) in
               measure ~failures ~strategy:(Route.Backtrack { history }) ~messages ~rng:r net))
      in
      { history; result })
    histories

(* Extension: line vs circle at matched parameters (Section 7: "the line
   or a circle"). The circle has no boundary, so its per-node distance
   profile is uniform. *)
let sweep_geometry ?(n = 8192) ?(links = 8) ?(networks = 5) ?(messages = 200) ~seed () =
  let rng = Rng.of_int seed in
  let line = Summary.create () and circle = Summary.create () in
  for _ = 1 to networks do
    let r = Rng.split rng in
    Summary.add line (mean_delivery ~messages ~rng:r (Network.build_ideal ~n ~links r));
    Summary.add circle (mean_delivery ~messages ~rng:r (Network.build_ring ~n ~links r))
  done;
  [
    row ~label:"line" ~parameter:1.0 ~measured:(Summary.mean line)
      ~bound:(Theory.upper_multi_link ~links n);
    row ~label:"circle" ~parameter:2.0 ~measured:(Summary.mean circle)
      ~bound:(Theory.upper_multi_link ~links n);
  ]

(* Extension: higher-dimensional tori at matched node counts (Section 7
   future work), with alpha = dims per Kleinberg. *)
type dimension_row = { dims : int; nodes : int; mean_hops_nd : float; failed_nd : float }

let sweep_dimensions ?(configs = [ (1, 4096); (2, 64); (3, 16) ]) ?(links = 4)
    ?(death_p = 0.3) ?(networks = 3) ?(messages = 200) ~seed () =
  let rng = Rng.of_int seed in
  List.map
    (fun (dims, side) ->
      let hops_s = Summary.create () and failed_s = Summary.create () in
      for _ = 1 to networks do
        let r = Rng.split rng in
        let m = Multidim.build ~dims ~side ~links r in
        let n = Multidim.size m in
        let mask = Failure.bernoulli_node_mask r ~n ~death_p in
        let alive = Ftr_graph.Bitset.get mask in
        let failed = ref 0 and hops = ref 0 and ok = ref 0 in
        for _ = 1 to messages do
          let rec live () =
            let v = Rng.int r n in
            if alive v then v else live ()
          in
          let src = live () and dst = live () in
          match
            Multidim.route ~alive ~strategy:(Multidim.Backtrack { history = 5 }) m ~src ~dst
          with
          | Route.Delivered { hops = h } ->
              incr ok;
              hops := !hops + h
          | Route.Failed _ -> incr failed
        done;
        Summary.add failed_s (float_of_int !failed /. float_of_int messages);
        if !ok > 0 then Summary.add hops_s (float_of_int !hops /. float_of_int !ok)
      done;
      {
        dims;
        nodes = (let rec pow acc k = if k = 0 then acc else pow (acc * side) (k - 1) in
                 pow 1 dims);
        mean_hops_nd = Summary.mean hops_s;
        failed_nd = Summary.mean failed_s;
      })
    configs

(* Greedy stretch: greedy hop count over the true shortest path on the same
   overlay. Greedy uses only local information; BFS sees the whole graph —
   the gap prices the paper's decentralisation. *)
type stretch_row = {
  stretch_links : int;
  mean_stretch : float;
  max_stretch : float;
  mean_greedy : float;
  mean_optimal : float;
}

let sweep_stretch ?(n = 4096) ?(links_list = [ 1; 4; 12 ]) ?(pairs = 100) ~seed () =
  let rng = Rng.of_int seed in
  List.map
    (fun links ->
      let net = Network.build_ideal ~n ~links (Rng.split rng) in
      let stretch = Summary.create () in
      let greedy_s = Summary.create () and optimal_s = Summary.create () in
      for _ = 1 to pairs do
        let src = Rng.int rng n in
        let dst =
          let rec pick () =
            let d = Rng.int rng n in
            if d = src then pick () else d
          in
          pick ()
        in
        let greedy = Route.hops (Route.route net ~src ~dst) in
        let optimal = (Ftr_graph.Bfs.distances (Network.csr net) ~src).(dst) in
        if optimal > 0 then begin
          Summary.add stretch (float_of_int greedy /. float_of_int optimal);
          Summary.add_int greedy_s greedy;
          Summary.add_int optimal_s optimal
        end
      done;
      {
        stretch_links = links;
        mean_stretch = Summary.mean stretch;
        max_stretch = Summary.max_value stretch;
        mean_greedy = Summary.mean greedy_s;
        mean_optimal = Summary.mean optimal_s;
      })
    links_list


(* ------------------------------------------------------------------ *)
(* Table 1: the captioned sections, run as pool jobs.                  *)
(* ------------------------------------------------------------------ *)

let table1 ?jobs ?(n = 1 lsl 14) ?(networks = 4) ?(messages = 200) ?(trials = 300) ~seed () =
  if n < 128 then invalid_arg "Experiment.table1: n must be >= 128";
  let ns = [ n / 64; n / 16; n / 4; n ] in
  (* Each section derives its own generator from [seed], so running the
     sections on pool workers is byte-identical to running them in a
     loop. *)
  let sections =
    [|
      (fun () ->
        ( "no failures, 1 link: T = O(H_n^2)  [Theorem 12]",
          sweep_single_link ~ns ~networks ~messages ~seed () ));
      (fun () ->
        ( Printf.sprintf "no failures, l links, n=%d: T = O(log^2 n / l)  [Theorem 13]" n,
          sweep_multi_link ~n ~links_list:[ 1; 2; 4; 8; 14 ] ~networks ~messages ~seed () ));
      (fun () ->
        ( "deterministic base-2 links: T <= ceil(log2 n)  [Theorem 14]",
          sweep_deterministic ~ns ~base:2 ~messages ~seed () ));
      (fun () ->
        ( "deterministic base-16 links: T <= ceil(log16 n)  [Theorem 14]",
          sweep_deterministic ~ns ~base:16 ~messages ~seed () ));
      (fun () ->
        ( Printf.sprintf "link failures, n=%d: T = O(log^2 n / p l)  [Theorem 15]" n,
          sweep_link_failure ~n ~probs:[ 1.0; 0.8; 0.6; 0.4; 0.2 ] ~networks ~messages ~seed () ));
      (fun () ->
        ( Printf.sprintf "geometric links + failures, n=%d: T = O(b log n / p)  [Theorem 16]" n,
          sweep_geometric_link_failure ~n ~base:2 ~probs:[ 1.0; 0.8; 0.6; 0.4 ] ~networks
            ~messages ~seed () ));
      (fun () ->
        ( Printf.sprintf "binomial node presence, n=%d, 1 link: T = O(log^2 n)  [Theorem 17]" n,
          sweep_binomial_nodes ~n ~links:1 ~probs:[ 1.0; 0.7; 0.5; 0.3 ] ~networks ~messages
            ~seed () ));
      (fun () ->
        ( Printf.sprintf "node failures, n=%d: T = O(log^2 n / (1-p) l)  [Theorem 18]" n,
          sweep_node_failure ~n ~probs:[ 0.0; 0.2; 0.4; 0.6 ] ~networks ~messages ~seed () ));
      (fun () ->
        ( "one-sided greedy vs Omega(log^2 n / l loglog n)  [Theorem 10]",
          sweep_lower_bound ~ns ~links:3 ~trials ~seed () ));
    |]
  in
  Array.to_list (Pool.map ?jobs ~count:(Array.length sections) (fun i -> sections.(i) ()))
