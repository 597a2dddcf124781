(** Breadth-first traversal: hop distances, reachability, connectivity.

    Tests use these to check structural invariants of generated overlays
    (e.g. every node can reach every other through ±1 links alone). *)

val distances : Adjacency.Csr.t -> src:int -> int array
(** Hop distance from [src] to every node; -1 when unreachable.
    @raise Invalid_argument if [src] is out of range. *)

val reachable_count : Adjacency.Csr.t -> src:int -> int
(** Number of nodes reachable from [src] (including itself). *)

val is_strongly_connected : Adjacency.Csr.t -> bool
(** Whether every node reaches every other along directed edges. *)

val eccentricity : Adjacency.Csr.t -> src:int -> int
(** Largest finite hop distance from [src]. *)

val weakly_connected_components : Adjacency.Csr.t -> int * int array
(** Component count and a per-node component label, ignoring direction. *)
