(* The cross-unit call graph the typed rules reason over.

   Nodes are named value bindings — toplevel functions and values,
   plus local [let]-bound helpers (the pool's [worker] closure, the
   router's [on_hop] wrapper) so that reachability can start at a
   closure passed to [Domain.spawn] rather than at its whole enclosing
   function. Edges are "the body of A mentions B"; an edge is [gated]
   when the mention sits inside a branch dominated by an
   [Ftr_obs.Flag.enabled] check, the one condition that is
   suppression-aware inside worker domains (lib/obs/flag.ml) — T1
   reachability refuses to cross gated edges, which is exactly
   "passing through the sanctioned seam".

   Everything is plain arrays and insertion-ordered adjacency lists:
   node ids are assigned in (sorted-unit, walk) order, so BFS fronts,
   witness chains and therefore findings are deterministic run to run. *)

type node = {
  name : string; (* display name, e.g. "Ftr_core.Route.route/on_hop" *)
  file : string;
  line : int;
  col : int;
}

type edge = { dst : int; gated : bool }

type t = {
  mutable nodes : node array;
  mutable count : int;
  mutable adj : edge list array; (* kept reversed; read through [succs] *)
  mutable radj : edge list array;
}

let create () = { nodes = [||]; count = 0; adj = [||]; radj = [||] }

let node_count g = g.count

let name g i = g.nodes.(i).name

let node g i = g.nodes.(i)

let ensure_capacity g =
  if g.count = Array.length g.nodes then begin
    let cap = max 64 (2 * g.count) in
    let grow a fill =
      let b = Array.make cap fill in
      Array.blit a 0 b 0 g.count;
      b
    in
    g.nodes <- grow g.nodes { name = ""; file = ""; line = 0; col = 0 };
    g.adj <- grow g.adj [];
    g.radj <- grow g.radj []
  end

let add_node g ~name ~file ~line ~col =
  ensure_capacity g;
  let id = g.count in
  g.nodes.(id) <- { name; file; line; col };
  g.count <- id + 1;
  id

let add_edge g ?(gated = false) src dst =
  g.adj.(src) <- { dst; gated } :: g.adj.(src);
  g.radj.(dst) <- { dst = src; gated } :: g.radj.(dst)

(* Adjacency in insertion order (the lists are built reversed). *)
let succs g i = List.rev g.adj.(i)

let preds g i = List.rev g.radj.(i)

(* BFS over [adj] (or [radj] when [reverse]), optionally refusing gated
   edges. Returns the visited set; [parent.(v)] is the node [v] was
   discovered from (-1 for seeds), which [chain] below unwinds into a
   witness path. Seeds are processed in the order given, so the first
   (deterministic) discovery wins. *)
let bfs g ?(reverse = false) ?(through_gated = true) seeds =
  let visited = Array.make (max 1 g.count) false in
  let parent = Array.make (max 1 g.count) (-1) in
  let q = Queue.create () in
  List.iter
    (fun s ->
      if s >= 0 && s < g.count && not visited.(s) then begin
        visited.(s) <- true;
        Queue.add s q
      end)
    seeds;
  while not (Queue.is_empty q) do
    let u = Queue.pop q in
    List.iter
      (fun e ->
        if (through_gated || not e.gated) && not visited.(e.dst) then begin
          visited.(e.dst) <- true;
          parent.(e.dst) <- u;
          Queue.add e.dst q
        end)
      (if reverse then preds g u else succs g u)
  done;
  (visited, parent)

(* The discovery chain seed -> ... -> v recorded by a [bfs] parent
   array, as display names. *)
let chain g parent v =
  let rec up acc v = if v < 0 then acc else up (name g v :: acc) parent.(v) in
  up [] v
