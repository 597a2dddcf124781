(* Invariant sanitizer for the simulator, in the ASan/TSan spirit:
   composable validators that walk a structure and report every breached
   invariant as a [violation] instead of failing fast. Each validator is
   pure — build the structure, run the validator, inspect the report.

   The cheap, always-available counterpart lives in the hot paths
   themselves ([Ftr_debug.Debug.enabled]-guarded checks inside Heap, Engine,
   Route, Network, Overlay and Store); this module is the exhaustive
   battery run by `p2psim check`, the qcheck properties and the @lint
   alias. See docs/CHECKING.md for the invariant-to-paper-section map. *)

module Network = Ftr_core.Network
module Route = Ftr_core.Route
module Failure = Ftr_core.Failure
module Heap = Ftr_sim.Heap
module Engine = Ftr_sim.Engine
module Overlay = Ftr_p2p.Overlay
module Store = Ftr_dht.Store
module Gof = Ftr_stats.Gof
module Pool = Ftr_exec.Pool
module Seed = Ftr_exec.Seed
module Rng = Ftr_prng.Rng

(* ------------------------------------------------------------------ *)
(* Reports                                                             *)
(* ------------------------------------------------------------------ *)

type violation = {
  code : string;  (** stable machine-readable id, e.g. "net.ring-broken" *)
  subject : string;  (** where: "node 17", "hop 3 (12->15)", "slot 4" *)
  detail : string;  (** what the invariant expected vs what was found *)
}

let violation code subject fmt =
  Printf.ksprintf (fun detail -> { code; subject; detail }) fmt

let pp_violation ppf { code; subject; detail } =
  Format.fprintf ppf "[%s] %s: %s" code subject detail

let pp_report ?(label = "check") ppf = function
  | [] -> Format.fprintf ppf "%s: ok (0 violations)@." label
  | vs ->
      Format.fprintf ppf "%s: %d violation%s@." label (List.length vs)
        (if List.length vs = 1 then "" else "s");
      List.iter (fun x -> Format.fprintf ppf "  %a@." pp_violation x) vs

(* ------------------------------------------------------------------ *)
(* Network structure (Sections 3-4: the ring plus 1/d long links)       *)
(* ------------------------------------------------------------------ *)

type ring_policy = Both_sides | Successor_only

(* Link membership via binary search directly on the (sorted) CSR row —
   the trace replay below asks this once per hop. *)
let mem_link net u x =
  let module I32 = Ftr_graph.Adjacency.I32 in
  let { Ftr_graph.Adjacency.Csr.offsets; targets } = Network.csr net in
  let lo = ref (I32.get offsets u) and hi = ref (I32.get offsets (u + 1)) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if I32.get targets mid < x then lo := mid + 1 else hi := mid
  done;
  !lo < I32.get offsets (u + 1) && I32.get targets !lo = x

let network ?expected_links ?(multi_edges = `Allowed) ?(ring = Both_sides) net =
  let out = ref [] in
  let emit x = out := x :: !out in
  let n = Network.size net in
  let line_size = Network.line_size net in
  (* Positions: strictly increasing grid points of the line. *)
  for i = 0 to n - 1 do
    let p = Network.position net i in
    if p < 0 || p >= line_size then
      emit (violation "net.position-off-line" (Printf.sprintf "node %d" i)
              "position %d outside [0,%d)" p line_size);
    if i > 0 && Network.position net (i - 1) >= p then
      emit (violation "net.position-order" (Printf.sprintf "node %d" i)
              "position %d not greater than predecessor %d" p (Network.position net (i - 1)))
  done;
  let ring_expected i =
    (* Neighbour *indices* every node must link to: the nearest present
       node on each side (the "short links" making greedy routing total). *)
    match Network.geometry net with
    | Network.Line ->
        (if i > 0 && ring <> Successor_only then [ i - 1 ] else [])
        @ (if i < n - 1 then [ i + 1 ] else [])
    | Network.Circle ->
        (if ring <> Successor_only then [ (i - 1 + n) mod n ] else [])
        @ [ (i + 1) mod n ]
  in
  for i = 0 to n - 1 do
    let subject = Printf.sprintf "node %d" i in
    let deg = Network.degree net i in
    for k = 0 to deg - 1 do
      let j = Network.neighbor net i k in
      if j < 0 || j >= n then
        emit (violation "net.dead-endpoint" subject
                "neighbor entry %d is index %d outside [0,%d)" k j n)
      else if j = i then
        emit (violation "net.self-link" subject "neighbor entry %d links node to itself" k);
      if k > 0 then begin
        let prev = Network.neighbor net i (k - 1) in
        if prev > j then
          emit (violation "net.unsorted" subject
                  "neighbor entries %d,%d out of order (%d > %d)" (k - 1) k prev j)
        else if prev = j && multi_edges = `Forbidden then
          emit (violation "net.duplicate-link" subject
                  "neighbor %d appears more than once" j)
      end
    done;
    List.iter
      (fun r ->
        if not (mem_link net i r) then
          emit (violation "net.ring-broken" subject
                  "missing short link to ring neighbor %d" r))
      (ring_expected i);
    (match expected_links with
    | None -> ()
    | Some links ->
        let expect = links + List.length (ring_expected i) in
        if deg <> expect then
          emit (violation "net.link-count" subject
                  "degree %d, expected %d (ℓ=%d long + %d ring)" deg expect
                  links (List.length (ring_expected i))))
  done;
  List.rev !out

(* The flat CSR storage behind [Network]: offsets must be a monotone
   prefix-sum frame over the target array, every target a valid node
   index, every row sorted. [Adjacency.Csr.validate] fails fast on the
   frame invariants at construction time; this validator is the
   exhaustive after-the-fact battery form. *)
let csr net =
  let module I32 = Ftr_graph.Adjacency.I32 in
  let out = ref [] in
  let emit x = out := x :: !out in
  let { Ftr_graph.Adjacency.Csr.offsets; targets } = Network.csr net in
  let n = Network.size net in
  if I32.length offsets <> n + 1 then
    emit (violation "csr.offsets-length" "offsets"
            "length %d, expected n+1 = %d" (I32.length offsets) (n + 1));
  if I32.length offsets > 0 && I32.get offsets 0 <> 0 then
    emit (violation "csr.offsets-start" "offsets" "offsets.(0) = %d, expected 0"
            (I32.get offsets 0));
  for i = 0 to min n (I32.length offsets - 1) - 1 do
    if I32.get offsets (i + 1) < I32.get offsets i then
      emit (violation "csr.offsets-monotone" (Printf.sprintf "node %d" i)
              "offsets.(%d) = %d decreases from offsets.(%d) = %d" (i + 1)
              (I32.get offsets (i + 1)) i (I32.get offsets i))
  done;
  if I32.length offsets = n + 1 && I32.get offsets n <> I32.length targets then
    emit (violation "csr.edge-count" "offsets"
            "offsets.(n) = %d but targets has %d entries" (I32.get offsets n)
            (I32.length targets));
  for k = 0 to I32.length targets - 1 do
    let v = I32.get targets k in
    if v < 0 || v >= n then
      emit (violation "csr.target-range" (Printf.sprintf "slot %d" k)
              "target %d outside [0,%d)" v n)
  done;
  if I32.length offsets = n + 1 then
    for i = 0 to n - 1 do
      for k = I32.get offsets i + 1 to I32.get offsets (i + 1) - 1 do
        if k > 0 && k < I32.length targets && I32.get targets (k - 1) > I32.get targets k then
          emit (violation "csr.row-unsorted" (Printf.sprintf "node %d" i)
                  "row entries at slots %d,%d out of order (%d > %d)" (k - 1) k
                  (I32.get targets (k - 1)) (I32.get targets k))
      done
    done;
  List.rev !out

(* Goodness of fit of the long-link length distribution against the 1/d^a
   law (Section 4.3 / Figure 5). Only full networks (every grid point
   present) have a closed-form aggregate model; sparse networks return no
   verdict. *)
let ideal_long_pmf ?(exponent = 1.0) net =
  let n = Network.size net in
  match Network.geometry net with
  | Network.Circle ->
      let max_d = n / 2 in
      let pmf = Array.make max_d 0.0 in
      let total = ref 0.0 in
      for i = 0 to max_d - 1 do
        let d = i + 1 in
        let count = if 2 * d = n then 1.0 else 2.0 in
        let w = count /. Float.pow (float_of_int d) exponent in
        pmf.(i) <- w;
        total := !total +. w
      done;
      Array.map (fun w -> w /. !total) pmf
  | Network.Line ->
      (* Node u draws from 1/d^a over the distances available on its two
         sides, normalised per node; the aggregate is the mixture over u.
         With inv.(u) = 1/T_u, the mass at distance d is
           (Σ_{u>=d} inv(u) + Σ_{u<=n-1-d} inv(u)) / (d^a · n),
         both sums computable from one cumulative pass. *)
      let p = Array.make n 0.0 in
      (* p.(m) = Σ_{k=1..m} k^-a *)
      for m = 1 to n - 1 do
        p.(m) <- p.(m - 1) +. (1.0 /. Float.pow (float_of_int m) exponent)
      done;
      let inv = Array.init n (fun u -> 1.0 /. (p.(u) +. p.(n - 1 - u))) in
      let prefix = Array.make (n + 1) 0.0 in
      for u = 0 to n - 1 do
        prefix.(u + 1) <- prefix.(u) +. inv.(u)
      done;
      let suffix d = prefix.(n) -. prefix.(d) in
      Array.init (n - 1) (fun i ->
          let d = i + 1 in
          (suffix d +. prefix.(n - d)) /. (Float.pow (float_of_int d) exponent *. float_of_int n))

let network_gof ?(exponent = 1.0) ?(ks_threshold = 0.05) ?(chi2_per_dof = 5.0) net =
  if not (Network.is_full net) then []
  else begin
    let model = ideal_long_pmf ~exponent net in
    let bins = Array.length model in
    let counts = Array.make bins 0 in
    let total = ref 0 in
    List.iter
      (fun d ->
        if d >= 1 && d <= bins then begin
          counts.(d - 1) <- counts.(d - 1) + 1;
          incr total
        end)
      (Network.long_link_lengths net);
    if !total = 0 then
      [ violation "gof.no-links" "network" "no long links to test against the 1/d law" ]
    else begin
      let totalf = float_of_int !total in
      let empirical = Array.map (fun c -> float_of_int c /. totalf) counts in
      let out = ref [] in
      (* Small samples fluctuate as 1/sqrt(m) even when drawn from the
         exact law, so the KS gate is floored at the asymptotic critical
         value c/sqrt(m) with a conservative c = 2.0 (far past the 1%
         point); the fixed threshold only binds once the sample is large
         enough to resolve it. *)
      let ks_threshold = Float.max ks_threshold (2.0 /. Float.sqrt totalf) in
      let ks = Gof.ks_statistic ~empirical ~model in
      if ks > ks_threshold then
        out :=
          violation "gof.ks" "network" "KS distance to the 1/d law %.4f exceeds %.4f" ks
            ks_threshold
          :: !out;
      (* χ² over octave buckets [2^k, 2^{k+1}) so expected counts stay
         large enough for the statistic to mean anything. *)
      let observed = ref [] and expected = ref [] in
      let d = ref 1 in
      while !d <= bins do
        let hi = min bins ((2 * !d) - 1) in
        let o = ref 0 and e = ref 0.0 in
        for k = !d to hi do
          o := !o + counts.(k - 1);
          e := !e +. (model.(k - 1) *. totalf)
        done;
        if !e >= 5.0 then begin
          observed := !o :: !observed;
          expected := !e :: !expected
        end;
        d := (2 * !d)
      done;
      let observed = Array.of_list (List.rev !observed) in
      let expected = Array.of_list (List.rev !expected) in
      let dof = Array.length observed in
      if dof > 0 then begin
        let chi2 = Gof.chi_square ~observed ~expected in
        if chi2 /. float_of_int dof > chi2_per_dof then
          out :=
            violation "gof.chi2" "network" "χ²/dof = %.2f over %d octave buckets exceeds %.2f"
              (chi2 /. float_of_int dof) dof chi2_per_dof
            :: !out
      end;
      List.rev !out
    end
  end

(* ------------------------------------------------------------------ *)
(* Route traces (Section 4.2 greedy rule, Section 6 backtracking)       *)
(* ------------------------------------------------------------------ *)

let trace ?(side = Route.Two_sided) ?(strategy = Route.Terminate) ?failures net ~src ~dst
    ~outcome ~path =
  let out = ref [] in
  let emit x = out := x :: !out in
  let rd =
    let s = match side with Route.One_sided -> `One_sided | Route.Two_sided -> `Two_sided in
    fun v -> Network.routing_distance net ~side:s ~src:v ~dst
  in
  (match path with
  | [] -> emit (violation "trace.empty" "trace" "empty path (must contain at least the source)")
  | first :: _ ->
      if first <> src then
        emit (violation "trace.start" "hop 0" "path starts at %d, not the source %d" first src));
  (* Hop accounting: the outcome's hop count is the number of edges in the
     captured trace. *)
  let hops = Route.hops outcome in
  let edges = max 0 (List.length path - 1) in
  if hops <> edges then
    emit (violation "trace.hop-count" "trace" "outcome reports %d hops but the trace has %d edges"
            hops edges);
  (match outcome with
  | Route.Delivered _ ->
      (match List.rev path with
      | last :: _ when last <> dst ->
          emit (violation "trace.not-at-target" (Printf.sprintf "hop %d" edges)
                  "delivered outcome but the trace ends at %d, not %d" last dst)
      | _ -> ())
  | Route.Failed _ -> ());
  (match failures with
  | None -> ()
  | Some f ->
      List.iteri
        (fun k node ->
          if not (Failure.node_alive f node) then
            emit (violation "trace.dead-endpoint" (Printf.sprintf "hop %d" k)
                    "the message visits dead node %d" node))
        path);
  (* Walk the edges. *)
  let check_edge k a b =
    if a = b then
      emit (violation "trace.self-hop" (Printf.sprintf "hop %d" k) "hop from %d to itself" a)
    else if not (mem_link net a b) then
      emit (violation "trace.not-a-link" (Printf.sprintf "hop %d (%d->%d)" k a b)
              "no link %d->%d in the network" a b)
  in
  let check_strict_descent k a b =
    let da = rd a and db = rd b in
    if db >= da then
      emit (violation "trace.non-monotone" (Printf.sprintf "hop %d (%d->%d)" k a b)
              "distance to target went %d -> %d (greedy hops must strictly decrease)" da db)
  in
  let check_no_overshoot k a b =
    if side = Route.One_sided && not (Network.one_sided_admissible net ~cur:a ~v:b ~dst) then
      emit (violation "trace.overshoot" (Printf.sprintf "hop %d (%d->%d)" k a b)
              "one-sided hop passes the target %d" dst)
  in
  let rec edges_of k = function
    | a :: (b :: _ as rest) ->
        check_edge k a b;
        edges_of (k + 1) rest
    | _ -> ()
  in
  (* Backtracking retraces long links in reverse (they are directed), so
     its edges are checked direction-aware inside the replay below. *)
  (match strategy with
  | Route.Backtrack _ -> ()
  | Route.Terminate | Route.Random_reroute _ -> (
      match path with [] -> () | p -> edges_of 1 p));
  (match strategy with
  | Route.Terminate ->
      let rec walk k = function
        | a :: (b :: _ as rest) ->
            check_strict_descent k a b;
            check_no_overshoot k a b;
            walk (k + 1) rest
        | _ -> ()
      in
      walk 1 path
  | Route.Random_reroute _ ->
      (* Legs toward random intermediates are not checkable without the
         intermediate list; edge validity and accounting above suffice. *)
      ()
  | Route.Backtrack { history } ->
      (* Replay the bounded history exactly as Route maintains it: forward
         moves push the departing node (trimmed to the window), a backtrack
         pops the head. A move back to an ancestor that the trimmed window
         no longer holds is a breach of the §6 window discipline. *)
      let trim l =
        let rec take k = function
          | [] -> []
          | x :: rest -> if k = 0 then [] else x :: take (k - 1) rest
        in
        take history l
      in
      let window = ref [] and full = ref [] and greedy_prefix = ref true in
      let check_pop_edge k a b =
        (* A pop retraces an earlier forward move b->a, so the link may
           exist in either direction. *)
        if (not (mem_link net a b)) && not (mem_link net b a) then
          emit (violation "trace.not-a-link" (Printf.sprintf "hop %d (%d->%d)" k a b)
                  "backtrack move with no link %d->%d in either direction" a b)
      in
      let rec walk k = function
        | a :: (b :: _ as rest) ->
            (match (!window, !full) with
            | w :: wrest, _ :: frest when w = b ->
                (* Legitimate backtrack to the window head. *)
                check_pop_edge k a b;
                window := wrest;
                full := frest;
                greedy_prefix := false
            | _, f :: frest when f = b && not (mem_link net a b) ->
                (* No forward link a->b, so this can only be a retrace of
                   the earlier b->a move — a pop to an ancestor that the
                   trimmed window no longer holds. (With a forward link the
                   move is indistinguishable from an ordinary hop and is
                   handled by the branch below.) *)
                emit (violation "trace.backtrack-window" (Printf.sprintf "hop %d (%d->%d)" k a b)
                        "backtracks to %d, which is outside the %d-entry history window" b
                        history);
                check_pop_edge k a b;
                window := [];
                full := frest;
                greedy_prefix := false
            | _ ->
                check_edge k a b;
                if !greedy_prefix then check_strict_descent k a b;
                check_no_overshoot k a b;
                window := trim (a :: !window);
                full := a :: !full);
            walk (k + 1) rest
        | _ -> ()
      in
      walk 1 path);
  List.rev !out

(* Convenience: route with the trace captured, then validate it. *)
let route_and_check ?failures ?(side = Route.Two_sided) ?(strategy = Route.Terminate) ?max_hops
    ?rng net ~src ~dst =
  let outcome, path = Route.route_path ?failures ~side ~strategy ?max_hops ?rng net ~src ~dst in
  (outcome, trace ~side ~strategy ?failures net ~src ~dst ~outcome ~path)

(* ------------------------------------------------------------------ *)
(* Event simulator                                                     *)
(* ------------------------------------------------------------------ *)

(* Heap order over the public introspection surface: every slot's item
   must not sort before its parent under the heap's own comparison. *)
let heap ?(subject = "heap") h =
  let out = ref [] in
  let len = Heap.length h in
  for i = 1 to len - 1 do
    let parent = (i - 1) / 2 in
    if Heap.compare_items h (Heap.slot h parent) (Heap.slot h i) > 0 then
      out :=
        violation "heap.order" (Printf.sprintf "%s slot %d" subject i)
          "item at slot %d sorts before its parent at slot %d" i parent
        :: !out
  done;
  List.rev !out

let engine e =
  let out = ref [] in
  let emit x = out := x :: !out in
  let now = Engine.now e in
  let slots = Engine.pending_slots e in
  let seen = Hashtbl.create 64 in
  Array.iteri
    (fun i (time, seq) ->
      let subject = Printf.sprintf "event #%d @%g" seq time in
      (* Events order by (time, seq); seq breaks ties FIFO. *)
      if i > 0 then begin
        let pt, ps = slots.((i - 1) / 2) in
        let parent_after =
          let c = Float.compare pt time in
          if c <> 0 then c > 0 else ps > seq
        in
        if parent_after then
          emit
            (violation "heap.order"
               (Printf.sprintf "engine heap slot %d" i)
               "event #%d @%g sorts before its parent event #%d @%g" seq time ps pt)
      end;
      if Float.is_nan time then
        emit (violation "engine.nan-time" subject "pending event has NaN timestamp")
      else if time < now then
        emit
          (violation "engine.event-past" subject
             "pending event timestamp %g is before the clock %g (time must be non-decreasing)"
             time now);
      if Hashtbl.mem seen seq then
        emit (violation "engine.duplicate-id" subject "event sequence number scheduled twice")
      else Hashtbl.add seen seq ())
    slots;
  List.rev !out

(* ------------------------------------------------------------------ *)
(* Overlay (Section 5: basins of attraction under churn)               *)
(* ------------------------------------------------------------------ *)

let overlay ?(strict_ring = false) (o : Overlay.t) =
  let out = ref [] in
  let emit x = out := x :: !out in
  let line_size = Overlay.line_size o in
  let views = Hashtbl.create 64 in
  Overlay.iter_nodes o (fun v -> Hashtbl.replace views v.Overlay.view_pos v);
  Hashtbl.iter
    (fun pos (v : Overlay.node_view) ->
      if v.view_alive then begin
        let subject = Printf.sprintf "node %d" pos in
        if pos < 0 || pos >= line_size then
          emit (violation "overlay.off-line" subject "position outside [0,%d)" line_size);
        (match v.view_left with
        | Some l ->
            if l >= pos then
              emit (violation "overlay.ring-order" subject "left pointer %d is not left of %d" l pos);
            if not (Overlay.known o l) then
              emit
                (violation "overlay.unknown-endpoint" subject "left pointer %d was never a node" l)
        | None -> ());
        (match v.view_right with
        | Some r ->
            if r <= pos then
              emit
                (violation "overlay.ring-order" subject "right pointer %d is not right of %d" r pos);
            if not (Overlay.known o r) then
              emit
                (violation "overlay.unknown-endpoint" subject "right pointer %d was never a node" r)
        | None -> ());
        let nl = Array.length v.view_long in
        if nl > Overlay.links o then
          emit
            (violation "overlay.link-count" subject "%d long links exceed the budget l=%d" nl
               (Overlay.links o));
        Array.iter
          (fun t ->
            if t = pos then emit (violation "overlay.self-link" subject "long link to itself")
            else if t < 0 || t >= line_size then
              emit (violation "overlay.off-line" subject "long link to %d outside [0,%d)" t line_size)
            else if not (Overlay.known o t) then
              emit
                (violation "overlay.unknown-endpoint" subject "long link target %d was never a node"
                   t))
          v.view_long
      end)
    views;
  if strict_ring then begin
    (* In a quiescent overlay (no unresolved joins, no unrepaired crashes)
       the ring must be exact: each live node's neighbours are the nearest
       live nodes, which is precisely what makes every point's basin of
       attraction owned by the closest node. *)
    let live = Array.of_list (Overlay.live_positions o) in
    let pp_opt = function Some x -> string_of_int x | None -> "none" in
    Array.iteri
      (fun i pos ->
        match Hashtbl.find_opt views pos with
        | None ->
            emit
              (violation "overlay.basin" (Printf.sprintf "node %d" pos)
                 "live position has no node record")
        | Some (v : Overlay.node_view) ->
            let subject = Printf.sprintf "node %d" pos in
            let expect_left = if i > 0 then Some live.(i - 1) else None in
            let expect_right = if i < Array.length live - 1 then Some live.(i + 1) else None in
            if v.view_left <> expect_left then
              emit
                (violation "overlay.basin" subject "left is %s, nearest live node is %s"
                   (pp_opt v.view_left) (pp_opt expect_left));
            if v.view_right <> expect_right then
              emit
                (violation "overlay.basin" subject "right is %s, nearest live node is %s"
                   (pp_opt v.view_right) (pp_opt expect_right)))
      live
  end;
  List.rev !out

(* ------------------------------------------------------------------ *)
(* Exec subsystem (Ftr_exec): scheduling-invariant merged results       *)
(* ------------------------------------------------------------------ *)

(* The executor's whole contract is that worker count never touches
   output. This validator runs a canonical job — a couple of draws from
   the per-job stream tagged with the job index — under several worker
   counts and reports any divergence from the jobs=1 reference, plus any
   breach of the stream-derivation rules (distinct per-index streams,
   none of them the root). Any scheduling leak (a job reading a worker's
   generator, a merge slot holding the wrong job) changes a value. *)
let exec ?(seed = 0xF7A) ?(count = 24) () =
  let out = ref [] in
  let emit x = out := x :: !out in
  let job ~index ~rng =
    let a = Rng.bits64 rng in
    let b = Rng.bits64 rng in
    (index, Printf.sprintf "%Lx:%Lx" a b)
  in
  let reference = Pool.map_seeded ~jobs:1 ~seed ~count job in
  Array.iteri
    (fun i (idx, _) ->
      if idx <> i then
        emit
          (violation "exec.merge-order" (Printf.sprintf "slot %d" i)
             "slot holds job %d's result (results must merge in index order)" idx))
    reference;
  List.iter
    (fun jobs ->
      let got = Pool.map_seeded ~jobs ~seed ~count job in
      Array.iteri
        (fun i r ->
          if r <> reference.(i) then
            emit
              (violation "exec.nondeterministic" (Printf.sprintf "job %d" i)
                 "result under jobs=%d differs from the jobs=1 reference" jobs))
        got)
    [ 2; 4 ];
  (* Stream derivation: per-index streams must be pairwise distinct and
     never the sweep's root stream (the regression FTR_CHECK also guards
     inside Pool.map_seeded itself). *)
  let first index = Rng.bits64 (Seed.rng_for ~seed ~index) in
  let root_first = Rng.bits64 (Seed.root ~seed) in
  let seen = Hashtbl.create count in
  for index = 0 to count - 1 do
    let f = first index in
    if f = root_first then
      emit
        (violation "exec.root-leak" (Printf.sprintf "job %d" index)
           "derived stream coincides with the root generator's");
    match Hashtbl.find_opt seen f with
    | Some j ->
        emit
          (violation "exec.stream-collision" (Printf.sprintf "job %d" index)
             "derived stream coincides with job %d's" j)
    | None -> Hashtbl.add seen f index
  done;
  List.rev !out

(* ------------------------------------------------------------------ *)
(* DHT store (Section 2: keys live with their basin owners)            *)
(* ------------------------------------------------------------------ *)

let store ?(complete = false) (s : Store.t) =
  let out = ref [] in
  let emit x = out := x :: !out in
  let owners = Hashtbl.create 256 in
  let owners_of key =
    match Hashtbl.find_opt owners key with
    | Some os -> os
    | None ->
        let os = Store.replica_owners s key in
        Hashtbl.replace owners key os;
        os
  in
  (* node -> its (key -> value) table, rebuilt from the iteration surface. *)
  let tables : (int, (string, string) Hashtbl.t) Hashtbl.t = Hashtbl.create 64 in
  Store.iter_stored s (fun ~node ~key ~value ->
      let tbl =
        match Hashtbl.find_opt tables node with
        | Some tbl -> tbl
        | None ->
            let tbl = Hashtbl.create 8 in
            Hashtbl.replace tables node tbl;
            tbl
      in
      Hashtbl.replace tbl key value;
      if not (List.mem node (owners_of key)) then
        emit
          (violation "store.misplaced" (Printf.sprintf "node %d" node)
             "holds key %S but is not one of its replica owners" key));
  if complete then begin
    (* Every key present anywhere must be present — with the same value —
       at every one of its replica owners (the state `put` establishes). *)
    let values = Hashtbl.create 256 in
    Hashtbl.iter (fun _ tbl -> Hashtbl.iter (fun k v -> Hashtbl.replace values k v) tbl) tables;
    Hashtbl.iter
      (fun key value ->
        List.iter
          (fun o ->
            let stored =
              match Hashtbl.find_opt tables o with
              | None -> None
              | Some tbl -> Hashtbl.find_opt tbl key
            in
            match stored with
            | None ->
                emit
                  (violation "store.missing-replica" (Printf.sprintf "node %d" o)
                     "replica owner is missing key %S" key)
            | Some v when v <> value ->
                emit
                  (violation "store.divergent" (Printf.sprintf "node %d" o)
                     "key %S disagrees across replicas" key)
            | Some _ -> ())
          (owners_of key))
      values
  end;
  List.rev !out

(* ------------------------------------------------------------------ *)
(* Service subsystem (Ftr_svc): the tick inbox and the actors          *)
(* ------------------------------------------------------------------ *)

(* The bounded-inbox rule and the delivery order, destination by
   destination. The order is the load-bearing one: a destination whose
   delivered mail is not strictly increasing in (src, seq) means the
   delivery sort was bypassed or a sender reused a sequence number, and
   the scheduler's jobs-invariance claim is void. The order is re-derived
   here from the stored keys, not taken from [Mailbox.well_ordered]. *)
let mailbox ?(subject = "inbox") (mb : _ Ftr_svc.Mailbox.t) =
  let out = ref [] in
  let emit x = out := x :: !out in
  let module M = Ftr_svc.Mailbox in
  let cap = M.capacity mb in
  if M.high_water mb > cap then
    emit
      (violation "svc.mailbox-bound" subject "high water %d exceeds capacity %d" (M.high_water mb)
         cap);
  let queued = ref 0 in
  for d = 0 to M.destinations mb - 1 do
    let dest = Printf.sprintf "%s destination %d" subject d in
    queued := !queued + M.pending mb d;
    if M.pending mb d > cap then
      emit
        (violation "svc.mailbox-bound" dest "%d posts queued exceed capacity %d" (M.pending mb d)
           cap);
    if M.length mb d > cap then
      emit
        (violation "svc.mailbox-bound" dest "%d deliveries exceed capacity %d" (M.length mb d) cap);
    let rec increasing = function
      | a :: (b :: _ as rest) -> compare a b < 0 && increasing rest
      | [ _ ] | [] -> true
    in
    if not (increasing (M.keys mb d)) then
      emit (violation "svc.mailbox-order" dest "delivered mail is not in (src, seq) order")
  done;
  if !queued <> M.posted mb then
    emit
      (violation "svc.mailbox-count" subject "%d posts queued by destination, %d in all" !queued
         (M.posted mb));
  List.rev !out

(* Structural invariants of a running (or finished) service: request
   conservation, ring sanity, link budgets and the inbox.
   Sorted actor order comes from [iter_actors], so the report is
   deterministic. *)
let service (svc : Ftr_svc.Service.t) =
  let out = ref [] in
  let emit x = out := x :: !out in
  let module S = Ftr_svc.Service in
  let stats = S.stats svc in
  let pending = List.length (S.pending_requests svc) in
  if
    stats.S.issued
    <> stats.S.ok + stats.S.failed + stats.S.timed_out + pending
  then
    emit
      (violation "svc.conservation" "service"
         "issued %d but delivered %d + failed %d + timed_out %d + pending %d" stats.S.issued
         stats.S.ok stats.S.failed stats.S.timed_out pending);
  if stats.S.maint_issued < stats.S.maint_ok + stats.S.maint_failed then
    emit
      (violation "svc.conservation" "service"
         "maintenance completions %d exceed issues %d"
         (stats.S.maint_ok + stats.S.maint_failed)
         stats.S.maint_issued);
  let line_size = S.line_size svc in
  let links = S.links svc in
  S.iter_actors svc (fun v ->
      let subject = Printf.sprintf "actor %d" v.S.av_pos in
      if v.S.av_pos < 0 || v.S.av_pos >= line_size then
        emit (violation "svc.off-line" subject "position outside [0,%d)" line_size);
      if v.S.av_alive then begin
        (match v.S.av_left with
        | Some l when l >= v.S.av_pos ->
            emit (violation "svc.ring-order" subject "left pointer %d is not left of %d" l v.S.av_pos)
        | Some _ | None -> ());
        (match v.S.av_right with
        | Some r when r <= v.S.av_pos ->
            emit
              (violation "svc.ring-order" subject "right pointer %d is not right of %d" r
                 v.S.av_pos)
        | Some _ | None -> ());
        let nl = Array.length v.S.av_long in
        if nl > links then
          emit (violation "svc.link-count" subject "%d long links exceed the budget l=%d" nl links);
        Array.iter
          (fun tgt ->
            if tgt = v.S.av_pos then emit (violation "svc.self-link" subject "long link to itself")
            else if tgt < 0 || tgt >= line_size then
              emit (violation "svc.off-line" subject "long link to %d outside [0,%d)" tgt line_size))
          v.S.av_long
      end);
  let inbox = S.inbox svc in
  if stats.S.dropped <> Ftr_svc.Mailbox.dropped inbox then
    emit
      (violation "svc.mailbox-count" "service" "%d drops counted, but the inbox refused %d"
         stats.S.dropped (Ftr_svc.Mailbox.dropped inbox));
  List.iter emit (mailbox ~subject:"service inbox" inbox);
  List.rev !out

(* ------------------------------------------------------------------ *)
(* Snapshot subsystem (Ftr_core.Snapshot): mmap-able network files      *)
(* ------------------------------------------------------------------ *)

(* Round-trip fidelity and corruption rejection in one battery section.
   A snapshot that loads is trusted byte-for-byte by the router (the CSR
   invariants are what make the unsafe reads safe), so the section checks
   both directions: a saved network — full, with no positions section, and
   sparse, with one — must come back identical in both load modes, and
   every corrupted variant — truncated, bad magic, wrong version, foreign
   endianness, out-of-range payload, non-increasing positions, trailing
   bytes — must be refused with [Snapshot.Corrupt], never accepted or
   crashed. *)
let snapshot ?(seed = 0x5A9) () =
  let module Snapshot = Ftr_core.Snapshot in
  let module Csr = Ftr_graph.Adjacency.Csr in
  let module I32 = Ftr_graph.Adjacency.I32 in
  let out = ref [] in
  let emit x = out := x :: !out in
  let rng = Rng.of_int seed in
  let full = Network.build_ideal ~n:192 ~links:3 rng in
  let sparse = Network.build_binomial ~n:192 ~links:3 ~present_p:0.5 rng in
  let path = Filename.temp_file "ftr_check_snapshot" ".ftrsnap" in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
  @@ fun () ->
  (* Save [net], reload it both ways and compare; returns the file bytes
     for the corruption matrix. *)
  let round_trip kind net =
    Snapshot.save net ~path;
    let compare_loaded how net' =
      let label = kind ^ " " ^ how in
      if Network.geometry net' <> Network.geometry net then
        emit (violation "snapshot.roundtrip" label "geometry changed across the round-trip");
      if Network.line_size net' <> Network.line_size net then
        emit
          (violation "snapshot.roundtrip" label "line_size %d, expected %d"
             (Network.line_size net') (Network.line_size net));
      if Network.links net' <> Network.links net then
        emit
          (violation "snapshot.roundtrip" label "links %d, expected %d" (Network.links net')
             (Network.links net));
      if not (Option.equal I32.equal (Network.positions net') (Network.positions net)) then
        emit (violation "snapshot.roundtrip" label "positions differ");
      if not (Csr.equal (Network.csr net') (Network.csr net)) then
        emit (violation "snapshot.roundtrip" label "CSR adjacency differs");
      (* Outcome fidelity: the loaded network must route exactly like the
         original (structural equality should imply it; this catches any
         accessor reading through the wrong layer). *)
      for i = 0 to 7 do
        let src = (i * 37) mod Network.size net
        and dst = (i * 91) mod Network.size net in
        if src <> dst then begin
          let o = Route.route net ~src ~dst and o' = Route.route net' ~src ~dst in
          if o <> o' then
            emit
              (violation "snapshot.route-divergence" label "route %d->%d differs after reload"
                 src dst)
        end
      done
    in
    (match Snapshot.load ~path () with
    | net' -> compare_loaded "mmap load" net'
    | exception Snapshot.Corrupt msg ->
        emit
          (violation "snapshot.rejects-valid" (kind ^ " mmap load")
             "refused a valid snapshot: %s" msg));
    (match Snapshot.load ~mmap:false ~path () with
    | net' -> compare_loaded "copy load" net'
    | exception Snapshot.Corrupt msg ->
        emit
          (violation "snapshot.rejects-valid" (kind ^ " copy load")
             "refused a valid snapshot: %s" msg));
    (match Snapshot.info ~path with
    | i ->
        if i.Snapshot.nodes <> Network.size net then
          emit
            (violation "snapshot.info" (kind ^ " info") "node count %d, expected %d"
               i.Snapshot.nodes (Network.size net))
    | exception Snapshot.Corrupt msg ->
        emit
          (violation "snapshot.rejects-valid" (kind ^ " info") "refused a valid snapshot: %s"
             msg));
    let bytes = In_channel.with_open_bin path In_channel.input_all in
    let expected =
      Snapshot.expected_bytes ~line_size:(Network.line_size net) ~nodes:(Network.size net)
        ~edges:(Csr.edge_count (Network.csr net))
    in
    if String.length bytes <> expected then
      emit
        (violation "snapshot.size" kind "file is %d bytes, expected %d" (String.length bytes)
           expected);
    bytes
  in
  let original = round_trip "full" full in
  let sparse_original = round_trip "sparse" sparse in
  (* Corruption matrix: every variant must raise [Corrupt]. *)
  let corrupt_path = Filename.temp_file "ftr_check_snapshot_bad" ".ftrsnap" in
  Fun.protect ~finally:(fun () -> try Sys.remove corrupt_path with Sys_error _ -> ())
  @@ fun () ->
  let expect_rejected label contents =
    Out_channel.with_open_bin corrupt_path (fun oc -> Out_channel.output_string oc contents);
    match Snapshot.load ~path:corrupt_path () with
    | _ ->
        emit (violation "snapshot.accepts-corrupt" label "corrupted file loaded without error")
    | exception Snapshot.Corrupt _ -> ()
    | exception e ->
        emit
          (violation "snapshot.wrong-exception" label "raised %s instead of Corrupt"
             (Printexc.to_string e))
  in
  let patched ?(source = original) off f =
    let b = Bytes.of_string source in
    f b off;
    Bytes.to_string b
  in
  expect_rejected "empty file" "";
  expect_rejected "truncated header" (String.sub original 0 40);
  expect_rejected "truncated payload" (String.sub original 0 (String.length original - 8));
  expect_rejected "trailing garbage" (original ^ "junk");
  expect_rejected "bad magic" (patched 0 (fun b off -> Bytes.set b off 'X'));
  expect_rejected "wrong version" (patched 12 (fun b off -> Bytes.set_int32_ne b off 99l));
  expect_rejected "foreign endianness"
    (patched 8 (fun b off -> Bytes.set_int32_ne b off 0x0D0C0B0Al));
  expect_rejected "out-of-range target"
    (patched
       (String.length original - 4)
       (fun b off -> Bytes.set_int32_ne b off Int32.max_int));
  (* The sparse file's positions section starts right after the 64-byte
     header: repeat the first position in the second slot. *)
  expect_rejected "non-increasing position"
    (patched ~source:sparse_original 68 (fun b off ->
         Bytes.set_int32_ne b off (Bytes.get_int32_ne b 64)));
  List.rev !out
