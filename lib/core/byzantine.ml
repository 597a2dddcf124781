(* Section 7's second future-work direction: "study the security properties
   of greedy routing schemes to see how they can be adapted to provide ...
   robustness against Byzantine failures."

   We model the classic blackhole adversary: a Byzantine node accepts a
   message and silently drops it. A naive sender learns nothing and the
   search dies. A defended sender keeps a per-search suspect list: when no
   progress acknowledgement arrives, it writes the suspect off and retries
   its next-best neighbour — the same machinery that routes around crashed
   nodes, at one wasted message per Byzantine encounter. *)

type outcome = { outcome : Route.outcome; wasted : int }

type defense =
  | Naive  (** senders never learn; the first blackhole on the path wins *)
  | Retry  (** senders time out, blacklist the suspect and take the next-best link *)
  | Retry_backtrack of { history : int }
      (** {!Retry} plus the Section 6 backtracking strategy when a node's
          candidates are exhausted *)

(* The misrouting adversary: instead of dropping, a Byzantine node
   forwards the message to its neighbour FARTHEST from the target — silent
   sabotage no timeout can see. Honest greedy progress must outrun the
   adversarial regressions; the TTL decides who wins. *)
let route_misroute ?(max_hops = 1_000) net ~byzantine ~src ~dst =
  if src < 0 || src >= Network.size net || dst < 0 || dst >= Network.size net then
    invalid_arg "Byzantine.route_misroute: node out of range";
  if byzantine src || byzantine dst then
    invalid_arg "Byzantine.route_misroute: endpoint is Byzantine";
  let dist v = Network.distance net v dst in
  let { Ftr_graph.Adjacency.Csr.offsets; targets } = Network.csr net in
  let module I32 = Ftr_graph.Adjacency.I32 in
  let failed h sabotaged cur reason =
    { outcome = Failed { hops = h; stuck_at = cur; reason }; wasted = sabotaged }
  in
  let rec go cur h sabotaged =
    if cur = dst then { outcome = Delivered { hops = h }; wasted = sabotaged }
    else if h >= max_hops then failed h sabotaged cur Hop_limit
    else if byzantine cur then begin
      (* Sabotage: hand the message to the worst neighbour. *)
      if I32.get offsets (cur + 1) = I32.get offsets cur then
        invalid_arg "Byzantine.route_misroute: node has no neighbours";
      let first = I32.get targets (I32.get offsets cur) in
      let worst = ref first and worst_d = ref (dist first) in
      for k = I32.get offsets cur to I32.get offsets (cur + 1) - 1 do
        let v = I32.get targets k in
        let d = dist v in
        if d > !worst_d then begin
          worst := v;
          worst_d := d
        end
      done;
      go !worst (h + 1) (sabotaged + 1)
    end
    else begin
      (* Honest greedy step. *)
      let cur_d = dist cur in
      let best = ref (-1) and best_d = ref cur_d in
      for k = I32.get offsets cur to I32.get offsets (cur + 1) - 1 do
        let v = I32.get targets k in
        let d = dist v in
        if d < !best_d then begin
          best := v;
          best_d := d
        end
      done;
      if !best < 0 then failed h sabotaged cur No_live_neighbor else go !best (h + 1) sabotaged
    end
  in
  go src 0 0

let route ?(defense = Naive) ?(max_hops = 1_000_000) net ~byzantine ~src ~dst =
  if src < 0 || src >= Network.size net || dst < 0 || dst >= Network.size net then
    invalid_arg "Byzantine.route: node out of range";
  if byzantine src || byzantine dst then invalid_arg "Byzantine.route: endpoint is Byzantine";
  let naive, history =
    match defense with
    | Naive -> (true, 0)
    | Retry -> (false, 0)
    | Retry_backtrack { history } ->
        if history < 1 then invalid_arg "Byzantine.route: history must be >= 1";
        (false, history)
  in
  let csr = Network.csr net in
  let { Ftr_graph.Adjacency.Csr.offsets; targets } = csr in
  let module I32 = Ftr_graph.Adjacency.I32 in
  let state = Stuck.create () in
  let dist v = Network.distance net v dst in
  let wasted = ref 0 in
  (* Senders cannot see who is Byzantine, so candidates include them. A
     naive sender learns nothing from a lost message, so after one it has
     nowhere left to send. *)
  let scan mode cur =
    let base = I32.get offsets cur in
    let best_idx = ref (-1)
    and best_d = ref (match mode with `Strict -> dist cur | `Any -> max_int) in
    if not (naive && !wasted > 0) then
      for k = 0 to I32.get offsets (cur + 1) - base - 1 do
        if not (Tried.mem (Stuck.tried state) (base + k)) then begin
          let d = dist (I32.get targets (base + k)) in
          if d < !best_d then begin
            best_idx := k;
            best_d := d
          end
        end
      done;
    !best_idx
  in
  (* The blackhole eats the message; a defended sender times out and
     tries its next candidate. *)
  let eaten v =
    byzantine v
    && begin
         incr wasted;
         true
       end
  in
  let outcome = Stuck.search ~eaten state ~history ~max_hops ~csr ~scan ~src ~dst in
  { outcome; wasted = !wasted }

type sweep_row = {
  byzantine_fraction : float;
  naive_failed : float;
  retry_failed : float;
  backtrack_failed : float;
  retry_wasted : float;  (** mean messages eaten per search under Retry *)
}

(* Failed-search fractions for the three defenses as the Byzantine
   population grows — the shape of the paper's security question. *)
let sweep ?(n = 4096) ?links ?(fractions = [ 0.0; 0.05; 0.1; 0.2; 0.3; 0.4 ]) ?(networks = 3)
    ?(messages = 200) ~seed () =
  let links = match links with Some l -> l | None -> int_of_float (Theory.lg n) in
  let rng = Ftr_prng.Rng.of_int seed in
  List.map
    (fun fraction ->
      let naive = ref 0 and retry = ref 0 and back = ref 0 and eaten = ref 0 and total = ref 0 in
      for _ = 1 to networks do
        let r = Ftr_prng.Rng.split rng in
        let net = Network.build_ideal ~n ~links r in
        (* Byzantine nodes are a uniformly random subset. *)
        let mask = Failure.random_node_fraction r ~n ~fraction in
        let byzantine v = not (Ftr_graph.Bitset.get mask v) in
        let honest () =
          let rec go () =
            let v = Ftr_prng.Rng.int r n in
            if byzantine v then go () else v
          in
          go ()
        in
        for _ = 1 to messages do
          let src = honest () and dst = honest () in
          incr total;
          let failed defense =
            not (Route.delivered (route ~defense net ~byzantine ~src ~dst).outcome)
          in
          if failed Naive then incr naive;
          let rr = route ~defense:Retry net ~byzantine ~src ~dst in
          if not (Route.delivered rr.outcome) then incr retry;
          eaten := !eaten + rr.wasted;
          if failed (Retry_backtrack { history = 5 }) then incr back
        done
      done;
      let frac x = float_of_int x /. float_of_int !total in
      {
        byzantine_fraction = fraction;
        naive_failed = frac !naive;
        retry_failed = frac !retry;
        backtrack_failed = frac !back;
        retry_wasted = float_of_int !eaten /. float_of_int !total;
      })
    fractions
