module Torus = Ftr_metric.Torus
module Csr = Ftr_graph.Adjacency.Csr
module I32 = Ftr_graph.Adjacency.I32

type t = {
  torus : Torus.t;
  adj : Csr.t; (* lattice neighbours, flat, preserving [Torus.neighbors] order *)
}

let create ~dims ~side =
  if side < 3 then invalid_arg "Lattice.create: side must be >= 3";
  let torus = Torus.create ~dims ~side in
  let rows = Array.init (Torus.size torus) (fun u -> Array.of_list (Torus.neighbors torus u)) in
  { torus; adj = Csr.of_rows rows }

let torus t = t.torus

let size t = Torus.size t.torus

(* CAN-style greedy: only lattice neighbours, pick any that strictly
   reduces L1 distance (first axis with a gap). Hop count equals the L1
   distance, i.e. Θ(d · n^{1/d}) in the worst case. *)
let route ?(max_hops = 100_000_000) t ~src ~dst =
  if not (Torus.contains t.torus src && Torus.contains t.torus dst) then
    invalid_arg "Lattice.route: node off the torus";
  let { Csr.offsets; targets } = t.adj in
  let rec go cur hops =
    if cur = dst then Some hops
    else if hops >= max_hops then None
    else begin
      let cd = Torus.distance t.torus cur dst in
      (* First neighbour (in [Torus.neighbors] order) strictly closer. *)
      let next = ref (-1) in
      let k = ref (I32.get offsets cur) in
      while !next < 0 && !k < I32.get offsets (cur + 1) do
        let v = I32.get targets !k in
        if Torus.distance t.torus v dst < cd then next := v;
        incr k
      done;
      if !next < 0 then None else go !next (hops + 1)
    end
  in
  go src 0

let route_hops t ~src ~dst =
  match route t ~src ~dst with
  | Some h -> h
  | None -> invalid_arg "Lattice.route_hops: routing failed"
