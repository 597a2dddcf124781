module Torus = Ftr_metric.Torus
module Sample = Ftr_prng.Sample
module Csr = Ftr_graph.Adjacency.Csr
module I32 = Ftr_graph.Adjacency.I32

type t = {
  torus : Torus.t;
  adj : Csr.t; (* sorted per-row neighbour indices, flat form *)
  links : int;
  alpha : float;
}

let torus t = t.torus

let size t = Torus.size t.torus

let dims t = Torus.dims t.torus

let links t = t.links

let alpha t = t.alpha

let degree t u = Csr.degree t.adj u

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
  { torus; adj = Csr.of_rows rows; links; alpha }

type outcome = Delivered of { hops : int } | Failed of { hops : int; stuck_at : int }

let delivered = function Delivered _ -> true | Failed _ -> false

let hops = function Delivered { hops } -> hops | Failed { hops; _ } -> hops

type strategy = Terminate | Backtrack of { history : int }

(* Greedy routing with node failures and the Section 6 stuck-message
   strategies, lifted to the torus. The same semantics as {!Route} on the
   line: forward to the live neighbour closest to the target; when stuck,
   terminate or backtrack through a bounded history (where a backtracked
   node may route around a hole through a farther neighbour). *)
let route ?(alive = fun _ -> true) ?(strategy = Terminate) ?(max_hops = 1_000_000) t ~src ~dst =
  if not (Torus.contains t.torus src && Torus.contains t.torus dst) then
    invalid_arg "Multidim.route: node off the torus";
  if not (alive src && alive dst) then invalid_arg "Multidim.route: endpoint is dead";
  let dist u = Torus.distance t.torus u dst in
  (* Tried links keyed by their flat CSR slot, in the set {!Route} keeps
     them in. *)
  let { Csr.offsets; targets } = t.adj in
  let tried = Tried.create () in
  let best ~any cur =
    let limit = if any then max_int else dist cur in
    let base = I32.get offsets cur in
    let best = ref (-1) and best_idx = ref (-1) and best_d = ref limit in
    for k = 0 to I32.get offsets (cur + 1) - base - 1 do
      let v = I32.get targets (base + k) in
      if alive v && not (Tried.mem tried (base + k)) then begin
        let d = dist v in
        if d < !best_d then begin
          best := v;
          best_idx := k;
          best_d := d
        end
      end
    done;
    if !best < 0 then None else Some (!best_idx, !best)
  in
  let record cur idx =
    match strategy with
    | Backtrack _ -> Tried.add tried (I32.get offsets cur + idx)
    | Terminate -> ()
  in
  match strategy with
  | Terminate ->
      let rec go cur h =
        if cur = dst then Delivered { hops = h }
        else if h >= max_hops then Failed { hops = h; stuck_at = cur }
        else
          match best ~any:false cur with
          | Some (_, v) -> go v (h + 1)
          | None -> Failed { hops = h; stuck_at = cur }
      in
      go src 0
  | Backtrack { history = limit } ->
      if limit < 1 then invalid_arg "Multidim.route: history must be >= 1";
      let trim l =
        let rec take k = function
          | [] -> []
          | x :: rest -> if k = 0 then [] else x :: take (k - 1) rest
        in
        take limit l
      in
      let rec forward cur h hist =
        if cur = dst then Delivered { hops = h }
        else if h >= max_hops then Failed { hops = h; stuck_at = cur }
        else
          match best ~any:false cur with
          | Some (idx, v) ->
              record cur idx;
              forward v (h + 1) (trim (cur :: hist))
          | None -> backtrack cur h hist
      and backtrack stuck h = function
        | [] -> Failed { hops = h; stuck_at = stuck }
        | y :: rest ->
            let h = h + 1 in
            if h >= max_hops then Failed { hops = h; stuck_at = y }
            else begin
              match best ~any:true y with
              | Some (idx, v) ->
                  record y idx;
                  forward v (h + 1) (trim (y :: rest))
              | None -> backtrack y h rest
            end
      in
      forward src 0 []

let route_hops ?alive ?strategy ?max_hops t ~src ~dst =
  match route ?alive ?strategy ?max_hops t ~src ~dst with
  | Delivered { hops } -> hops
  | Failed _ -> invalid_arg "Multidim.route_hops: routing failed"
