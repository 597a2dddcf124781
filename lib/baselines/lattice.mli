(** CAN-style greedy routing on a pure d-dimensional lattice (Section 3):
    each node knows only its 2d lattice neighbours, so delivery takes
    Θ(d·n^{1/d}) hops — the paper's example of a structured overlay with
    small state but polynomially long routes. *)

type t

val create : dims:int -> side:int -> t
(** Torus of [side^dims] nodes. @raise Invalid_argument if [side < 3]. *)

val torus : t -> Ftr_metric.Torus.t
(** The underlying metric space. *)

val size : t -> int
(** Number of nodes. *)

val route_hops : t -> src:int -> dst:int -> int
(** Greedy lattice hops, always exactly the L1 distance.
    @raise Invalid_argument on an endpoint off the torus. *)
