(** Failure models of Sections 4.3.3–4.3.4 and 6.

    A failure view answers two questions during routing: is node [i] alive,
    and is the [idx]-th outgoing link of node [src] usable. Immediate
    (nearest-neighbour) links are kept alive by the link-failure builders,
    matching the paper's assumption that a message can always crawl. *)

type t

val none : t
(** Everything alive. *)

val make :
  ?node_alive:(int -> bool) -> ?link_alive:(src:int -> idx:int -> bool) -> unit -> t
(** Assemble a view from predicates (defaults: everything alive). *)

val node_alive : t -> int -> bool
(** Whether node index [i] is alive. *)

val link_alive : t -> src:int -> idx:int -> bool
(** Whether the [idx]-th outgoing link of [src] is usable. *)

val compose : t -> t -> t
(** Both views must agree that an entity is alive. Concrete fast-path forms
    survive composition with {!none}-like views; any other combination
    falls back to the general closure form. *)


(** {1 Node failures (Section 6, Theorem 18)} *)

val of_node_mask : Ftr_graph.Bitset.t -> t
(** View from an aliveness bitset (set bit = alive). *)

val random_node_fraction : Ftr_prng.Rng.t -> n:int -> fraction:float -> Ftr_graph.Bitset.t
(** Exactly [⌊fraction·n⌋] uniformly random nodes dead — the Section 6
    experiment setup. @raise Invalid_argument unless [0 <= fraction < 1]. *)

val bernoulli_node_mask : Ftr_prng.Rng.t -> n:int -> death_p:float -> Ftr_graph.Bitset.t
(** Each node independently dead with probability [death_p] (Theorem 18's
    model). *)

(** {1 Link failures (Theorems 15–16)} *)

type link_mask
(** Per-link aliveness, one bit per (node, neighbour-index). *)

val random_link_mask : Ftr_prng.Rng.t -> Network.t -> present_p:float -> link_mask
(** Every long-distance link independently present with probability
    [present_p]; nearest-neighbour links always present. *)

val link_mask_alive : link_mask -> src:int -> idx:int -> bool
(** Query the mask directly. *)

val of_link_mask : link_mask -> t
(** Failure view from a link mask. *)

(** {1 Fast-path views}

    The routing inner loop tests liveness millions of times; these
    accessors expose the concrete masks behind the common failure models so
    the loop can test a bit directly instead of calling a closure. Each
    returns [None] (or [false]) when the view is the general closure form,
    in which case callers must go through {!node_alive}/{!link_alive}. *)

val node_alive_bits : t -> Ftr_graph.Bitset.t option
(** The aliveness bitset behind {!of_node_mask} views (set bit = alive). *)

val node_all_alive : t -> bool
(** Whether the node view is statically "everything alive". *)

val link_all_alive : t -> bool
(** Whether the link view is statically "everything alive". *)

val node_view_label : t -> string
(** Stable name of the resolved node view — ["all-alive"], ["bitset"] or
    ["predicate"] — as printed in flight-recorder trace headers. *)

val link_view_label : t -> string
(** Stable name of the resolved link view — ["all-alive"], ["mask"] or
    ["predicate"]. *)
