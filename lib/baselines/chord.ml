module Ring = Ftr_metric.Ring

type t = {
  ring : Ring.t;
  nodes : int array; (* sorted identifiers of present nodes *)
  finger_stride : int; (* fingers per node (= identifier bits m) *)
  fingers : int array; (* flat: node i's finger j at slot i*stride + j *)
}

let ring_size t = Ring.size t.ring

(* Index of the first node whose identifier is >= id, wrapping to 0. *)
let successor_index nodes ring_size id =
  let id = ((id mod ring_size) + ring_size) mod ring_size in
  let n = Array.length nodes in
  let rec search lo hi =
    if lo >= hi then lo
    else
      let mid = (lo + hi) / 2 in
      if nodes.(mid) >= id then search lo mid else search (mid + 1) hi
  in
  let i = search 0 n in
  if i = n then 0 else i

let successor t id = t.nodes.(successor_index t.nodes (ring_size t) id)

let bits_of m =
  let rec go acc v = if v >= m then acc else go (acc + 1) (v * 2) in
  go 0 1

let create ~ring_size ~node_ids =
  if ring_size < 2 then invalid_arg "Chord.create: ring_size must be >= 2";
  let nodes = Array.copy node_ids in
  Array.sort Int.compare nodes;
  let n = Array.length nodes in
  if n < 1 then invalid_arg "Chord.create: need at least one node";
  Array.iteri
    (fun i id ->
      if id < 0 || id >= ring_size then invalid_arg "Chord.create: identifier off the ring";
      if i > 0 && nodes.(i - 1) = id then invalid_arg "Chord.create: duplicate identifier")
    nodes;
  let m = bits_of ring_size in
  (* Finger j of a node with identifier u is the first node succeeding
     u + 2^j (j = 0 is the immediate successor). Stored flat, one stride-m
     segment per node, so routing scans a contiguous slice. *)
  let fingers = Array.make (n * m) 0 in
  Array.iteri
    (fun i u ->
      for j = 0 to m - 1 do
        fingers.((i * m) + j) <-
          nodes.(successor_index nodes ring_size ((u + (1 lsl j)) mod ring_size))
      done)
    nodes;
  { ring = Ring.create ring_size; nodes; finger_stride = m; fingers }

let create_full ~n =
  if n < 2 then invalid_arg "Chord.create_full: need at least two nodes";
  create ~ring_size:n ~node_ids:(Array.init n (fun i -> i))

let successor_list t ~id ~r =
  let n = Array.length t.nodes in
  let start = successor_index t.nodes (ring_size t) id in
  List.init (min r n) (fun k -> t.nodes.((start + k) mod n))

(* Greedy clockwise routing: forward to the live finger that gets
   farthest around the ring without passing the target's node. One-sided
   by construction, like the paper's Chord discussion.

   Chord's fault tolerance rests on two mechanisms the paper's Section 6
   alludes to when it says its results "appear to perform as well" as
   Chord's: dead fingers are skipped, and a successor list of
   [successors] live fallbacks guarantees clockwise progress unless all
   of them die at once. Finger 0 is the immediate successor, so with
   every node alive the fallback is never taken. Each hop shortens the
   clockwise distance to the target, so a route ends within n hops. *)
let route ?(alive = fun _ -> true) ?(successors = 1) t ~src ~key =
  if successors < 1 then invalid_arg "Chord.route: successors must be >= 1";
  let target = successor t key in
  if not (alive src && alive target) then invalid_arg "Chord.route: endpoint is dead";
  let rec go cur hops =
    if cur = target then Some hops
    else begin
      let remaining = Ring.clockwise_distance t.ring ~src:cur ~dst:target in
      let base = successor_index t.nodes (ring_size t) cur * t.finger_stride in
      let best = ref cur and best_gain = ref 0 in
      for j = 0 to t.finger_stride - 1 do
        let f = t.fingers.(base + j) in
        if alive f then begin
          let gain = Ring.clockwise_distance t.ring ~src:cur ~dst:f in
          if gain > !best_gain && gain <= remaining then begin
            best := f;
            best_gain := gain
          end
        end
      done;
      if !best <> cur then go !best (hops + 1)
      else
        match
          List.find_opt
            (fun s ->
              alive s && s <> cur && Ring.clockwise_distance t.ring ~src:cur ~dst:s <= remaining)
            (successor_list t ~id:((cur + 1) mod ring_size t) ~r:successors)
        with
        | Some s -> go s (hops + 1)
        | None -> None
    end
  in
  go src 0

let route_hops t ~src ~key =
  match route t ~src ~key with
  | Some h -> h
  | None -> invalid_arg "Chord.route_hops: routing failed"

type failure_row = {
  fail_fraction : float;
  failed_r1 : float;  (** failed searches with a 1-entry successor list *)
  failed_r4 : float;  (** with 4 successors *)
  hops_r4 : float;  (** mean hops of successful r=4 searches *)
}

(* Chord's own Figure-6-style sweep, for the cross-system comparison. *)
let failure_sweep ?(n = 4096) ?(fractions = [ 0.0; 0.2; 0.4; 0.6; 0.8 ]) ?(messages = 300)
    ~seed () =
  let t = create_full ~n in
  let rng = Ftr_prng.Rng.of_int seed in
  List.map
    (fun fraction ->
      let mask = Ftr_core.Failure.random_node_fraction rng ~n ~fraction in
      let alive = Ftr_graph.Bitset.get mask in
      let live () =
        let rec go () =
          let v = Ftr_prng.Rng.int rng n in
          if alive v then v else go ()
        in
        go ()
      in
      let f1 = ref 0 and f4 = ref 0 and hops4 = ref 0 and ok4 = ref 0 in
      for _ = 1 to messages do
        let src = live () and key = live () in
        (match route ~successors:1 t ~alive ~src ~key with
        | Some _ -> ()
        | None -> incr f1);
        match route ~successors:4 t ~alive ~src ~key with
        | Some h ->
            incr ok4;
            hops4 := !hops4 + h
        | None -> incr f4
      done;
      {
        fail_fraction = fraction;
        failed_r1 = float_of_int !f1 /. float_of_int messages;
        failed_r4 = float_of_int !f4 /. float_of_int messages;
        hops_r4 = float_of_int !hops4 /. float_of_int (max 1 !ok4);
      })
    fractions
