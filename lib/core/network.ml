module Csr = Ftr_graph.Adjacency.Csr
module I32 = Ftr_graph.Adjacency.I32

type geometry = Line | Circle

(* Neighbour lists live in one flat CSR pair (node [i]'s row is
   [adj.targets.(adj.offsets.(i)) .. adj.targets.(adj.offsets.(i+1)-1)],
   sorted): the routing inner loop scans a contiguous block instead of
   chasing [n] separately boxed rows. Positions and the CSR are int32
   Bigarrays — 4 bytes per entry, unscanned by the GC, and mmap-able from
   a snapshot file (Snapshot).

   A full network ([size = line_size]) stores no positions: strictly
   increasing points of [0, line_size) with one node per point can only
   be [0 .. n-1], so node [i] sits at point [i] and [positions] is
   [None]. Only sparse networks carry the vector. *)
type t = {
  geometry : geometry;
  line_size : int; (* number of grid points of the underlying space *)
  positions : I32.t option; (* [None]: the identity embedding *)
  adj : Csr.t; (* neighbor indices, per-row sorted *)
  links : int;
}

let size t = Csr.size t.adj

let line_size t = t.line_size

let links t = t.links

let position t i = match t.positions with None -> i | Some p -> I32.get p i

let positions t = t.positions

let degree t i = Csr.degree t.adj i

let neighbor t i k = Csr.nth t.adj i k

let iter_neighbors t i f = Csr.iter_row t.adj i f

let csr t = t.adj

let geometry t = t.geometry

let is_full t = size t = t.line_size

let point_distance t a b =
  match t.geometry with
  | Line -> abs (a - b)
  | Circle ->
      let d = abs (a - b) in
      min d (t.line_size - d)

let distance t i j = point_distance t (position t i) (position t j)

(* Arc length walking in the increasing direction; the one-sided metric on
   the circle (Chord's orientation). *)
let clockwise_distance t ~src ~dst =
  match t.geometry with
  | Line -> invalid_arg "Network.clockwise_distance: line networks have no orientation"
  | Circle ->
      let d = (position t dst - position t src) mod t.line_size in
      if d < 0 then d + t.line_size else d

(* The quantity greedy routing minimises. Two-sided: the metric distance.
   One-sided: on the line it is still the metric distance (the no-overshoot
   rule is separate); on the circle it is the clockwise arc, which encodes
   no-overshoot by itself (passing the target wraps the arc around). *)
let routing_distance t ~side ~src ~dst =
  match (side, t.geometry) with
  | `Two_sided, _ | `One_sided, Line -> distance t src dst
  | `One_sided, Circle -> clockwise_distance t ~src ~dst

(* Line-specific one-sided admissibility: never traverse a link past the
   target. Circle networks need no such rule (see [routing_distance]). *)
let one_sided_admissible t ~cur ~v ~dst =
  match t.geometry with
  | Circle -> true
  | Line ->
      let cur_pos = position t cur and v_pos = position t v and dst_pos = position t dst in
      (cur_pos > dst_pos && v_pos >= dst_pos && v_pos < cur_pos)
      || (cur_pos < dst_pos && v_pos <= dst_pos && v_pos > cur_pos)

let nearest_index t ~position:target =
  let n = size t in
  if n = 0 then invalid_arg "Network.nearest_index: empty network";
  (* Binary search for the first present position >= target, then compare
     with its predecessor. *)
  let rec search lo hi =
    if lo >= hi then lo
    else
      let mid = (lo + hi) / 2 in
      if position t mid >= target then search lo mid else search (mid + 1) hi
  in
  let i = search 0 n in
  match t.geometry with
  | Line ->
      if i = n then n - 1
      else if i = 0 then 0
      else if target - position t (i - 1) <= position t i - target then i - 1
      else i
  | Circle ->
      (* Candidates wrap: the first and last nodes are adjacent. *)
      let candidates = [ (i - 1 + n) mod n; i mod n ] in
      let best = ref (i mod n) and best_d = ref max_int in
      List.iter
        (fun c ->
          let d = point_distance t (position t c) target in
          if d < !best_d then begin
            best := c;
            best_d := d
          end)
        candidates;
      !best

(* Sanitizer hook: structural invariants every builder must establish —
   sorted in-range neighbour lists without self-links, and the short-link
   ring that keeps greedy routing total (both sides on the line; at least
   the successor on the circle, where one-sided constructions like the
   chord-like network carry no predecessor link). Run on every freshly
   built network when FTR_CHECK is on; the exhaustive battery with
   per-builder policies lives in Ftr_check.Check. *)
let debug_validate t =
  let n = size t in
  let { Csr.offsets; targets } = t.adj in
  if
    I32.length offsets <> n + 1
    || I32.get offsets 0 <> 0
    || I32.get offsets n <> I32.length targets
  then Ftr_debug.Debug.failf "Network: CSR offsets malformed";
  for i = 0 to n - 1 do
    if I32.get offsets (i + 1) < I32.get offsets i then
      Ftr_debug.Debug.failf "Network: CSR offsets decrease at row %d" i;
    let lo = I32.get offsets i and hi = I32.get offsets (i + 1) in
    let contains x =
      let found = ref false in
      for k = lo to hi - 1 do
        if I32.get targets k = x then found := true
      done;
      !found
    in
    for k = lo to hi - 1 do
      let j = I32.get targets k in
      if j < 0 || j >= n then Ftr_debug.Debug.failf "Network: node %d links to non-node %d" i j;
      if j = i then Ftr_debug.Debug.failf "Network: node %d links to itself" i;
      if k > lo && I32.get targets (k - 1) > j then
        Ftr_debug.Debug.failf "Network: node %d neighbour list unsorted at entry %d" i (k - lo)
    done;
    match t.geometry with
    | Line ->
        if i > 0 && not (contains (i - 1)) then
          Ftr_debug.Debug.failf "Network: node %d missing ring link to %d" i (i - 1);
        if i < n - 1 && not (contains (i + 1)) then
          Ftr_debug.Debug.failf "Network: node %d missing ring link to %d" i (i + 1)
    | Circle ->
        if n > 1 && not (contains ((i + 1) mod n)) then
          Ftr_debug.Debug.failf "Network: node %d missing ring link to successor %d" i
            ((i + 1) mod n)
  done

let checked t =
  if Ftr_debug.Debug.enabled () then debug_validate t;
  t

let check_positions ~line_size positions =
  let n = I32.length positions in
  for i = 0 to n - 1 do
    let p = I32.get positions i in
    if p < 0 || p >= line_size then invalid_arg "Network: position off line";
    if i > 0 && I32.get positions (i - 1) >= p then
      invalid_arg "Network: positions must be strictly increasing"
  done

(* Assemble from already-flat parts — the snapshot loader's entry point.
   [validate] (default true) runs the full structural check; pass false
   only for trusted in-process parts (the builders below, which establish
   the invariants by construction and re-check under FTR_CHECK). A
   position vector handed in for a full network is checked, then dropped:
   it can only be the identity. *)
let of_flat ?(validate = true) ~geometry ~line_size ?positions ~adj ~links () =
  let n = Csr.size adj in
  if line_size < n then invalid_arg "Network.of_flat: more nodes than grid points";
  if links < 0 then invalid_arg "Network.of_flat: negative link count";
  (match positions with
  | Some p when I32.length p <> n ->
      invalid_arg "Network.of_flat: positions/adjacency size mismatch"
  | None when n <> line_size -> invalid_arg "Network.of_flat: sparse network without positions"
  | Some _ | None -> ());
  if validate then begin
    Csr.validate ~sorted:true adj;
    Option.iter (check_positions ~line_size) positions
  end;
  let positions = if n = line_size then None else positions in
  checked { geometry; line_size; positions; adj; links }

(* Every jagged builder assembles per-node rows and hands them here; the
   CSR flattening is the only place the flat pair is built from rows.
   Omitted [positions] means a full network. The builders' positions are
   in range and increasing by construction, so a full-length vector is the
   identity and is dropped. *)
let make ~geometry ~line_size ?positions ~rows ~links () =
  let positions =
    match positions with
    | Some p when Array.length p <> line_size -> Some (I32.of_int_array p)
    | Some _ | None -> None
  in
  checked { geometry; line_size; positions; adj = Csr.of_rows rows; links }

let equal a b =
  a.geometry = b.geometry
  && a.line_size = b.line_size
  && a.links = b.links
  && Option.equal I32.equal a.positions b.positions
  && Csr.equal a.adj b.adj

let of_neighbor_indices ?(geometry = Line) ~line_size ~positions ~neighbors ~links () =
  let n = Array.length positions in
  if Array.length neighbors <> n then
    invalid_arg "Network.of_neighbor_indices: positions/neighbors length mismatch";
  Array.iteri
    (fun i p ->
      if p < 0 || p >= line_size then invalid_arg "Network.of_neighbor_indices: position off line";
      if i > 0 && positions.(i - 1) >= p then
        invalid_arg "Network.of_neighbor_indices: positions must be strictly increasing")
    positions;
  Array.iter
    (Array.iter (fun j ->
         if j < 0 || j >= n then invalid_arg "Network.of_neighbor_indices: neighbor out of range"))
    neighbors;
  make ~geometry ~line_size ~positions ~rows:neighbors ~links ()

(* The 1/d mass of the first [upto] lengths: a node's mass on one side. *)
let[@inline] side_mass pl upto =
  if upto = 0 then 0.0 else Ftr_prng.Sample.power_law_total pl ~upto

(* The one copy of the long-link draw rule (Section 4.3): a point [v]
   distinct from the node at position [src] on a line of [n] points, with
   Pr[v] proportional to 1/d(src,v)^exponent, normalised over the whole
   line. The side is chosen with probability proportional to its mass,
   then the length by inverse CDF within the side: exactly two
   [Rng.float] draws. [t_left] and [t_right] are the node's side masses,
   which a caller drawing many links from one node computes once. *)
let[@inline] long_step pl rng ~n ~src ~t_left ~t_right =
  if Ftr_prng.Rng.float rng *. (t_left +. t_right) < t_left then
    src - Ftr_prng.Sample.power_law_draw pl rng ~upto:src
  else src + Ftr_prng.Sample.power_law_draw pl rng ~upto:(n - 1 - src)

let sample_long_target pl rng ~n ~src =
  let t_left = side_mass pl src and t_right = side_mass pl (n - 1 - src) in
  if t_left +. t_right <= 0.0 then invalid_arg "Network.sample_long_target: isolated node";
  long_step pl rng ~n ~src ~t_left ~t_right

let finish_node ~immediate ~long =
  let arr = Array.of_list (List.rev_append immediate long) in
  Array.sort Int.compare arr;
  arr

(* Rows per chunk of the parallel fill hold about [chunk_links] long links.
   The chunking is a pure function of (n, links), never of the host or the
   job count, so each chunk's rows and its place in the stream are fixed. *)
let chunk_links = 1 lsl 20

(* Row kernel: fills rows [lo, hi) of a full network, drawing from [rng].
   A full network's rows sit at arithmetic offsets ([row_start]), so each
   row is written straight into its final slots. Left draws (<= u-1) fill
   the row from its start and right draws (>= u+1) from its end, each
   block insertion-sorted as it grows; the ring links take the gap left
   between them. The row is then sorted, so one check of its first and
   last entries range-checks all of it. *)
let fill_rows pl rng ~n ~links ~row_start ~offsets ~targets ~lo ~hi =
  for u = lo to hi - 1 do
    let start = row_start u and stop = row_start (u + 1) in
    I32.unsafe_set offsets u start;
    let t_left = side_mass pl u and t_right = side_mass pl (n - 1 - u) in
    let nl = ref 0 and nr = ref 0 in
    for _ = 1 to links do
      let v = long_step pl rng ~n ~src:u ~t_left ~t_right in
      if v < u then begin
        let j = ref (start + !nl) in
        while !j > start && I32.unsafe_get targets (!j - 1) > v do
          I32.unsafe_set targets !j (I32.unsafe_get targets (!j - 1));
          decr j
        done;
        I32.unsafe_set targets !j v;
        incr nl
      end
      else begin
        let j = ref (stop - !nr - 1) in
        while !j < stop - 1 && I32.unsafe_get targets (!j + 1) < v do
          I32.unsafe_set targets !j (I32.unsafe_get targets (!j + 1));
          incr j
        done;
        I32.unsafe_set targets !j v;
        incr nr
      end
    done;
    if u > 0 then I32.unsafe_set targets (start + !nl) (u - 1);
    if u < n - 1 then I32.unsafe_set targets (stop - !nr - 1) (u + 1);
    if I32.unsafe_get targets start < 0 || I32.unsafe_get targets (stop - 1) >= n then
      invalid_arg (Printf.sprintf "Network.build_ideal: row %d links off the line" u)
  done

(* The rows are cut into chunks of [chunk_links] long links and filled on
   the pool. Every long link takes exactly two [Rng.float] draws, so the
   rows of chunk [c] start at step [2 * links * rows * c] of [rng]'s
   stream: the calling domain places a copy of [rng] there for each chunk
   by skip-ahead ([Rng.advance]) before the fill, as the figure drivers
   pre-split theirs, and moves [rng] past the last chunk afterwards. The
   CSR is therefore the sequential fill's under any job count, and [rng]
   ends where the sequential fill leaves it. A single chunk runs inline
   on [rng] itself. *)
let build_ideal ?(exponent = 1.0) ~n ~links rng =
  if n < 2 then invalid_arg "Network.build_ideal: need at least two nodes";
  if links < 0 then invalid_arg "Network.build_ideal: negative link count";
  let row = links + 2 in
  (* Exact edge count: [links] long links per node plus the two ring links,
     minus the one each end node lacks. *)
  if n > (I32.max_value + 2) / row then
    invalid_arg "Network.build_ideal: edge count exceeds the int32 range";
  (* Every builder times its construction phase under a [Ftr_obs.Span]; a
     no-op (beyond the closure) unless FTR_OBS is on. *)
  Ftr_obs.Span.time "network.build_ideal" @@ fun () ->
  let pl =
    Ftr_obs.Span.time "network.build_ideal.table" (fun () ->
        Ftr_prng.Sample.power_law ~exponent ~max_length:(n - 1))
  in
  let row_start u = (u * row) - if u = 0 then 0 else if u = n then 2 else 1 in
  let offsets = I32.create (n + 1) and targets = I32.create (row_start n) in
  I32.unsafe_set offsets n (row_start n);
  let rows = if links = 0 then n else max 1 (chunk_links / links) in
  let chunks = (n + rows - 1) / rows in
  let fill rng c =
    fill_rows pl rng ~n ~links ~row_start ~offsets ~targets ~lo:(c * rows)
      ~hi:(min n ((c + 1) * rows))
  in
  Ftr_obs.Span.time "network.build_ideal.rows" (fun () ->
      if chunks = 1 then fill rng 0
      else begin
        let rngs =
          Array.init chunks (fun c ->
              if c > 0 then Ftr_prng.Rng.advance rng (2 * links * rows);
              Ftr_prng.Rng.copy rng)
        in
        ignore (Ftr_exec.Pool.map ~count:chunks (fun c -> fill rngs.(c) c));
        Ftr_prng.Rng.advance rng (2 * links * (n - ((chunks - 1) * rows)))
      end);
  checked
    { geometry = Line; line_size = n; positions = None; adj = { Csr.offsets; targets }; links }

let build_binomial ?(exponent = 1.0) ~n ~links ~present_p rng =
  if n < 2 then invalid_arg "Network.build_binomial: need at least two positions";
  if present_p <= 0.0 || present_p > 1.0 then
    invalid_arg "Network.build_binomial: present_p must be in (0,1]";
  Ftr_obs.Span.time "network.build_binomial" @@ fun () ->
  let present = Array.make n false in
  let count = ref 0 in
  for p = 0 to n - 1 do
    if Ftr_prng.Rng.bernoulli rng present_p then begin
      present.(p) <- true;
      incr count
    end
  done;
  (* Guarantee at least two nodes so the network is routable. *)
  if !count < 2 then begin
    if not present.(0) then begin
      present.(0) <- true;
      incr count
    end;
    if not present.(n - 1) then begin
      present.(n - 1) <- true;
      incr count
    end
  end;
  let positions = Array.make !count 0 in
  let k = ref 0 in
  for p = 0 to n - 1 do
    if present.(p) then begin
      positions.(!k) <- p;
      incr k
    end
  done;
  let m = !count in
  let pl = Ftr_prng.Sample.power_law ~exponent ~max_length:(n - 1) in
  (* Index lookup by rejection: draw targets from the unconditioned 1/d law
     and retry while the target is absent. This realises Theorem 17's
     "probability of choosing a node conditioned on the existence of that
     node" exactly. *)
  let index_of = Array.make n (-1) in
  Array.iteri (fun i p -> index_of.(p) <- i) positions;
  let sample_present_index ~src_pos ~src_idx ~t_left ~t_right =
    let rec attempt tries =
      let target = long_step pl rng ~n ~src:src_pos ~t_left ~t_right in
      if target >= 0 && target < n && present.(target) && index_of.(target) <> src_idx then
        index_of.(target)
      else if tries > 10_000 then
        (* Pathologically sparse corner; fall back to a uniform present node. *)
        let rec fallback () =
          let j = Ftr_prng.Rng.int rng m in
          if j <> src_idx then j else fallback ()
        in
        fallback ()
      else attempt (tries + 1)
    in
    attempt 0
  in
  let neighbors =
    Array.init m (fun i ->
        let immediate = (if i > 0 then [ i - 1 ] else []) @ if i < m - 1 then [ i + 1 ] else [] in
        let src_pos = positions.(i) in
        let t_left = side_mass pl src_pos and t_right = side_mass pl (n - 1 - src_pos) in
        let long = ref [] in
        for _ = 1 to links do
          long := sample_present_index ~src_pos ~src_idx:i ~t_left ~t_right :: !long
        done;
        finish_node ~immediate ~long:!long)
  in
  make ~geometry:Line ~line_size:n ~positions ~rows:neighbors ~links ()

let ceil_log ~base n =
  if base < 2 then invalid_arg "Network.ceil_log: base must be >= 2";
  let rec go acc power = if power >= n then acc else go (acc + 1) (power * base) in
  go 0 1

let build_deterministic ~n ~base =
  if n < 2 then invalid_arg "Network.build_deterministic: need at least two nodes";
  if base < 2 then invalid_arg "Network.build_deterministic: base must be >= 2";
  Ftr_obs.Span.time "network.build_deterministic" @@ fun () ->
  let digits = ceil_log ~base n in
  let neighbors =
    Array.init n (fun u ->
        let acc = ref [] in
        let add v = if v >= 0 && v < n && v <> u then acc := v :: !acc in
        let power = ref 1 in
        for _ = 0 to digits - 1 do
          for j = 1 to base - 1 do
            add (u + (j * !power));
            add (u - (j * !power))
          done;
          power := !power * base
        done;
        add (u - 1);
        add (u + 1);
        let arr = Array.of_list !acc in
        Array.sort Int.compare arr;
        (* Deduplicate the sorted neighbour list. *)
        let uniq = ref [] in
        Array.iter
          (fun v -> match !uniq with w :: _ when w = v -> () | _ -> uniq := v :: !uniq)
          arr;
        Array.of_list (List.rev !uniq))
  in
  let links = (base - 1) * digits in
  make ~geometry:Line ~line_size:n ~rows:neighbors ~links ()

let build_geometric ~n ~base =
  if n < 2 then invalid_arg "Network.build_geometric: need at least two nodes";
  if base < 2 then invalid_arg "Network.build_geometric: base must be >= 2";
  Ftr_obs.Span.time "network.build_geometric" @@ fun () ->
  let neighbors =
    Array.init n (fun u ->
        let acc = ref [] in
        let add v = if v >= 0 && v < n && v <> u then acc := v :: !acc in
        let power = ref 1 in
        while !power < n do
          add (u + !power);
          add (u - !power);
          power := !power * base
        done;
        let arr = Array.of_list !acc in
        Array.sort Int.compare arr;
        let uniq = ref [] in
        Array.iter
          (fun v -> match !uniq with w :: _ when w = v -> () | _ -> uniq := v :: !uniq)
          arr;
        Array.of_list (List.rev !uniq))
  in
  make ~geometry:Line ~line_size:n ~rows:neighbors ~links:(ceil_log ~base n) ()

(* Lengths of all links except the two ring links (the nearest present node
   on each side); these are the long-distance links whose distribution
   Figure 5 plots. *)
let long_link_lengths t =
  let result = ref [] in
  let n = size t in
  for i = 0 to n - 1 do
    let ring_left, ring_right =
      match t.geometry with
      | Line ->
          ((if i > 0 then Some (i - 1) else None), if i < n - 1 then Some (i + 1) else None)
      | Circle -> (Some ((i - 1 + n) mod n), Some ((i + 1) mod n))
    in
    let seen_left = ref false and seen_right = ref false in
    let matches o j = match o with Some r -> r = j | None -> false in
    Csr.iter_row t.adj i (fun j ->
        let is_ring =
          (matches ring_left j && not !seen_left && (seen_left := true; true))
          || (matches ring_right j && not !seen_right && (seen_right := true; true))
        in
        if not is_ring then result := distance t i j :: !result)
  done;
  !result

(* A full circle of [n] nodes: every node linked to both ring neighbours
   (wrapping) and to [links] long-distance draws with Pr[v] proportional to
   1/arc(u,v). The circle is the paper's other one-dimensional space
   (Section 7: "the line or a circle") and matches Chord's identifier
   circle; it has no boundary, so every node sees the same distance
   profile. *)
let build_ring ?(exponent = 1.0) ~n ~links rng =
  if n < 3 then invalid_arg "Network.build_ring: need at least three nodes";
  if links < 0 then invalid_arg "Network.build_ring: negative link count";
  Ftr_obs.Span.time "network.build_ring" @@ fun () ->
  let max_d = n / 2 in
  (* Weight per arc distance d: (number of nodes at distance d) / d^a.
     Two nodes per distance except the antipode of an even ring. *)
  let weights =
    Array.init max_d (fun i ->
        let d = i + 1 in
        let count = if 2 * d = n then 1.0 else 2.0 in
        count /. Float.pow (float_of_int d) exponent)
  in
  let cdf = Ftr_prng.Sample.cdf_of_weights weights in
  let neighbors =
    Array.init n (fun u ->
        let immediate = [ (u + 1) mod n; (u - 1 + n) mod n ] in
        let long = ref [] in
        for _ = 1 to links do
          let d = 1 + Ftr_prng.Sample.cdf_draw cdf rng in
          let v =
            if 2 * d = n then (u + d) mod n
            else if Ftr_prng.Rng.bool rng then (u + d) mod n
            else (u - d + n) mod n
          in
          long := v :: !long
        done;
        let arr = Array.of_list (List.rev_append immediate !long) in
        Array.sort Int.compare arr;
        arr)
  in
  make ~geometry:Circle ~line_size:n ~rows:neighbors ~links ()

(* Chord as an instance of this framework (Section 3: Chord's nodes "can be
   thought of as embedded on grid points on a real circle"): clockwise
   links at distances base^i on the circle. One-sided greedy routing over
   this network takes exactly Chord's finger-table routes. *)
let build_chordlike ?(base = 2) ?(predecessor = false) ~n () =
  if n < 3 then invalid_arg "Network.build_chordlike: need at least three nodes";
  if base < 2 then invalid_arg "Network.build_chordlike: base must be >= 2";
  Ftr_obs.Span.time "network.build_chordlike" @@ fun () ->
  let neighbors =
    Array.init n (fun u ->
        (* Chord keeps only the successor; the optional predecessor makes
           two-sided routing total on the same finger set. *)
        let acc =
          ref (((u + 1) mod n) :: (if predecessor then [ (u - 1 + n) mod n ] else []))
        in
        let power = ref 1 in
        while !power < n do
          for j = 1 to base - 1 do
            let v = (u + (j * !power)) mod n in
            if v <> u then acc := v :: !acc
          done;
          power := !power * base
        done;
        let arr = Array.of_list !acc in
        Array.sort Int.compare arr;
        let uniq = ref [] in
        Array.iter
          (fun v -> match !uniq with w :: _ when w = v -> () | _ -> uniq := v :: !uniq)
          arr;
        Array.of_list (List.rev !uniq))
  in
  make ~geometry:Circle ~line_size:n ~rows:neighbors
    ~links:((base - 1) * ceil_log ~base n)
    ()
