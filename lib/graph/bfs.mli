(** Breadth-first traversal: hop distances, reachability, connectivity.

    Tests use these to check structural invariants of generated overlays
    (e.g. every node can reach every other through ±1 links alone). *)

val distances : Adjacency.Csr.t -> src:int -> int array
(** Hop distance from [src] to every node; -1 when unreachable.
    @raise Invalid_argument if [src] is out of range. *)

(* ftr-lint: disable T6 -- oracle: the builder tests check overlays against it *)
val is_strongly_connected : Adjacency.Csr.t -> bool
(** Whether every node reaches every other along directed edges. *)
