(** Kleinberg's small-world grid [5], the paper's closest relative.

    Nodes on a 2-D torus keep their four lattice neighbours plus [q] long
    links drawn with probability proportional to [d^-alpha]; Kleinberg
    proved greedy routing takes O(log²n) hops exactly when [alpha] equals
    the dimension (2 here), and the paper contrasts its own line model with
    this construction's brittleness. *)

type t

val build : ?alpha:float -> ?long_links:int -> side:int -> Ftr_prng.Rng.t -> t
(** A [side × side] torus with lattice links plus [long_links] draws per
    node from the [d^-alpha] law (defaults: alpha 2, one link).
    @raise Invalid_argument if [side < 3] or [long_links < 0]. *)

val torus : t -> Ftr_metric.Torus.t
(** The underlying metric space. *)

val size : t -> int
(** Number of nodes. *)

val degree : t -> int -> int
(** Number of entries in a node's neighbour row (duplicates counted). *)

val route : ?max_hops:int -> t -> src:int -> dst:int -> int option
(** Greedy hops from [src] to [dst]; [None] only on hop-budget exhaustion
    (lattice links make progress otherwise guaranteed).
    @raise Invalid_argument if an endpoint is off the torus. *)

val route_hops : t -> src:int -> dst:int -> int
(** As {!route} but raising on failure. *)
