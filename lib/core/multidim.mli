(** The paper's construction lifted to higher-dimensional spaces — the
    first future-work direction of Section 7 ("whether similar strategies
    would work for higher-dimensional spaces").

    Nodes fill a d-dimensional torus; every node keeps its 2d lattice
    neighbours plus [links] long-distance links drawn with probability
    proportional to [distance^-alpha] (default [alpha = dims], Kleinberg's
    optimal exponent, which coincides with the paper's exponent-1 law when
    [dims = 1]). Greedy routing and the failure strategies carry over
    unchanged. *)

type t

val build : ?alpha:float -> ?links:int -> dims:int -> side:int -> Ftr_prng.Rng.t -> t
(** A [side^dims] torus overlay. Defaults: [alpha = float dims], one long
    link. @raise Invalid_argument if [dims < 1], [side < 3] or
    [links < 0]. *)

val torus : t -> Ftr_metric.Torus.t
(** The underlying metric space. *)

val size : t -> int
(** Number of nodes. *)

val dims : t -> int
(** Dimensionality. *)

val links : t -> int
(** Long links per node. *)

val alpha : t -> float
(** Exponent of the link-length law. *)

val degree : t -> int -> int
(** Number of entries in a node's neighbour row (lattice plus long links,
    duplicates counted). *)

type outcome = Delivered of { hops : int } | Failed of { hops : int; stuck_at : int }

val delivered : outcome -> bool
(** Whether the message arrived. *)

val hops : outcome -> int
(** Hops consumed either way. *)

type strategy = Terminate | Backtrack of { history : int }

val route :
  ?alive:(int -> bool) ->
  ?strategy:strategy ->
  ?max_hops:int ->
  t ->
  src:int ->
  dst:int ->
  outcome
(** Greedy routing toward [dst] over live nodes, with the line model's
    stuck-message semantics (terminate, or backtrack through a bounded
    history with hole-circumvention).
    @raise Invalid_argument on off-torus or dead endpoints. *)

val route_hops : ?alive:(int -> bool) -> ?strategy:strategy -> ?max_hops:int -> t -> src:int -> dst:int -> int
(** As {!route} but raising on failure (for benchmarks). *)
