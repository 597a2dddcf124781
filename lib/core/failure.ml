module Bitset = Ftr_graph.Bitset
module I32 = Ftr_graph.Adjacency.I32

type link_mask = { offsets : I32.t; bits : Bitset.t }

let link_mask_alive m ~src ~idx = Bitset.get m.bits (I32.get m.offsets src + idx)

(* The hot routing loop wants to test a bit, not call a closure; the views
   below expose the concrete masks behind the two common failure models so
   [Route] can specialise, while arbitrary predicates stay expressible as
   the general fallback. *)
type node_view = N_all | N_bits of Bitset.t | N_pred of (int -> bool)

type link_view = L_all | L_mask of link_mask | L_pred of (src:int -> idx:int -> bool)

type t = { node_view : node_view; link_view : link_view }

let none = { node_view = N_all; link_view = L_all }

let of_node_mask mask = { none with node_view = N_bits mask }

let random_node_fraction rng ~n ~fraction =
  if fraction < 0.0 || fraction >= 1.0 then
    invalid_arg "Failure.random_node_fraction: fraction must be in [0,1)";
  let mask = Bitset.create n in
  Bitset.fill mask true;
  let deaths = int_of_float (fraction *. float_of_int n) in
  (* Kill a uniformly random subset of exactly [deaths] nodes: take the
     prefix of a random permutation. *)
  let perm = Ftr_prng.Rng.permutation rng n in
  for i = 0 to deaths - 1 do
    Bitset.clear mask perm.(i)
  done;
  mask

let bernoulli_node_mask rng ~n ~death_p =
  if death_p < 0.0 || death_p > 1.0 then
    invalid_arg "Failure.bernoulli_node_mask: death_p must be in [0,1]";
  let mask = Bitset.create n in
  for i = 0 to n - 1 do
    if not (Ftr_prng.Rng.bernoulli rng death_p) then Bitset.set mask i
  done;
  mask

let random_link_mask rng net ~present_p =
  if present_p < 0.0 || present_p > 1.0 then
    invalid_arg "Failure.random_link_mask: present_p must be in [0,1]";
  let n = Network.size net in
  (* The network's CSR offsets are exactly the per-link slot layout; share
     the vector instead of recomputing it (read-only on both sides). *)
  let { Ftr_graph.Adjacency.Csr.offsets; targets } = Network.csr net in
  let bits = Bitset.create (I32.get offsets n) in
  for i = 0 to n - 1 do
    for k = I32.get offsets i to I32.get offsets (i + 1) - 1 do
      let j = I32.get targets k in
      (* The links to the nearest neighbour on either side are assumed
         always present (Theorems 15 and 16). *)
      let immediate = j = i - 1 || j = i + 1 in
      if immediate || Ftr_prng.Rng.bernoulli rng present_p then Bitset.set bits k
    done
  done;
  { offsets; bits }

let of_link_mask m = { none with link_view = L_mask m }

let node_alive t i =
  match t.node_view with N_all -> true | N_bits b -> Bitset.get b i | N_pred f -> f i

let link_alive t ~src ~idx =
  match t.link_view with
  | L_all -> true
  | L_mask m -> link_mask_alive m ~src ~idx
  | L_pred f -> f ~src ~idx

let compose a b =
  let node_view =
    match (a.node_view, b.node_view) with
    | N_all, v | v, N_all -> v
    | _, _ -> N_pred (fun i -> node_alive a i && node_alive b i)
  in
  let link_view =
    match (a.link_view, b.link_view) with
    | L_all, v | v, L_all -> v
    | _, _ -> L_pred (fun ~src ~idx -> link_alive a ~src ~idx && link_alive b ~src ~idx)
  in
  { node_view; link_view }

(* Constant-string names of the resolved views, for trace headers and
   report lines; allocation-free by construction. *)
let node_view_label t =
  match t.node_view with N_all -> "all-alive" | N_bits _ -> "bitset" | N_pred _ -> "predicate"

let link_view_label t =
  match t.link_view with L_all -> "all-alive" | L_mask _ -> "mask" | L_pred _ -> "predicate"

let node_alive_bits t = match t.node_view with N_bits b -> Some b | N_all | N_pred _ -> None

let node_all_alive t = match t.node_view with N_all -> true | N_bits _ | N_pred _ -> false

let link_all_alive t = match t.link_view with L_all -> true | L_mask _ | L_pred _ -> false
