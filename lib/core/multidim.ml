module Torus = Ftr_metric.Torus
module Sample = Ftr_prng.Sample
module Csr = Ftr_graph.Adjacency.Csr
module I32 = Ftr_graph.Adjacency.I32

type t = {
  torus : Torus.t;
  adj : Csr.t; (* sorted per-row neighbour indices, flat form *)
}

let size t = Torus.size t.torus

(* Offset table shared by all nodes: every non-zero offset vector weighted
   by d(offset)^-alpha, where d is the wraparound L1 distance. Kleinberg's
   construction generalised to any dimension; alpha = dims is his optimal
   exponent. *)
let build_offset_cdf torus ~alpha =
  let total = Torus.size torus in
  let offsets = Array.make (total - 1) 0 in
  let weights = Array.make (total - 1) 0.0 in
  let k = ref 0 in
  for off = 1 to total - 1 do
    let d = Torus.distance torus 0 off in
    offsets.(!k) <- off;
    weights.(!k) <- 1.0 /. Float.pow (float_of_int d) alpha;
    incr k
  done;
  (offsets, Sample.cdf_of_weights weights)

(* Add an offset vector (encoded as a point relative to the origin) to a
   point, axis by axis with wraparound. *)
let add_offset torus u off =
  let cu = Torus.coords torus u and co = Torus.coords torus off in
  let d = Torus.dims torus in
  let result = Array.make d 0 in
  for i = 0 to d - 1 do
    result.(i) <- (cu.(i) + co.(i)) mod Torus.side torus
  done;
  Torus.index torus result

let build ?alpha ?(links = 1) ~dims ~side rng =
  if dims < 1 then invalid_arg "Multidim.build: dims must be >= 1";
  if side < 3 then invalid_arg "Multidim.build: side must be >= 3";
  if links < 0 then invalid_arg "Multidim.build: negative link count";
  let torus = Torus.create ~dims ~side in
  let alpha = match alpha with Some a -> a | None -> float_of_int dims in
  let offsets, cdf = build_offset_cdf torus ~alpha in
  let rows =
    Array.init (Torus.size torus) (fun u ->
        let lattice = Torus.neighbors torus u in
        let long = ref [] in
        for _ = 1 to links do
          let off = offsets.(Sample.cdf_draw cdf rng) in
          long := add_offset torus u off :: !long
        done;
        let arr = Array.of_list (List.rev_append lattice !long) in
        Array.sort Int.compare arr;
        arr)
  in
  { torus; adj = Csr.of_rows rows }

let csr t = t.adj

type strategy = Terminate | Backtrack of { history : int }

(* Greedy routing with node failures and the Section 6 stuck-message
   strategies, lifted to the torus: {!Stuck.search} over the torus
   distance, where Terminate is the search without a window. *)
let route ?(alive = fun _ -> true) ?(strategy = Terminate) ?(max_hops = 1_000_000) t ~src ~dst =
  if not (Torus.contains t.torus src && Torus.contains t.torus dst) then
    invalid_arg "Multidim.route: node off the torus";
  if not (alive src && alive dst) then invalid_arg "Multidim.route: endpoint is dead";
  let history =
    match strategy with
    | Terminate -> 0
    | Backtrack { history } ->
        if history < 1 then invalid_arg "Multidim.route: history must be >= 1";
        history
  in
  let dist u = Torus.distance t.torus u dst in
  let { Csr.offsets; targets } = t.adj in
  let state = Stuck.create () in
  let tried = Stuck.tried state in
  (* The live untried neighbour closest to [dst], first in row order on
     ties; strictly closer than [cur] in [`Strict] mode. *)
  let scan mode cur =
    let base = I32.get offsets cur in
    let best_idx = ref (-1)
    and best_d = ref (match mode with `Strict -> dist cur | `Any -> max_int) in
    for k = 0 to I32.get offsets (cur + 1) - base - 1 do
      let v = I32.get targets (base + k) in
      if alive v && not (Tried.mem tried (base + k)) then begin
        let d = dist v in
        if d < !best_d then begin
          best_idx := k;
          best_d := d
        end
      end
    done;
    !best_idx
  in
  Stuck.search state ~history ~max_hops ~csr:t.adj ~scan ~src ~dst
