(** Chord finger-table routing (Stoica et al., Section 3 of the paper).

    Nodes sit on an identifier circle; node u's j-th finger is the first
    node succeeding [u + 2^j]. Greedy clockwise routing reaches the node
    responsible for any key in O(log n) hops — the comparison point for the
    paper's claim that structured overlays share the embedded-metric-space
    shape. *)

type t

(* ftr-lint: disable T6 -- ROADMAP item 19: only test_baselines builds sparse rings *)
val create : ring_size:int -> node_ids:int array -> t
(** Ring of the given size populated by the given (distinct) identifiers.
    @raise Invalid_argument on duplicates or out-of-range ids. *)

val create_full : n:int -> t
(** Every identifier of a size-[n] ring occupied — the densest instance,
    directly comparable to the paper's full line. *)

(* ftr-lint: disable T6 -- ROADMAP item 19: only test_baselines uses it *)
val successor : t -> int -> int
(** Identifier of the node responsible for a key (first node at or after
    it, clockwise). *)

(* ftr-lint: disable T6 -- ROADMAP item 19: only test_baselines routes with a failure set *)
val route : ?alive:(int -> bool) -> ?successors:int -> t -> src:int -> key:int -> int option
(** Hops for greedy clockwise routing from the node at [src] to the node
    responsible for [key], skipping dead fingers (default: every node
    alive) and falling back to the first live entry of a
    [successors]-long successor list (default 1); [None] when even the
    fallbacks are all dead.
    @raise Invalid_argument if an endpoint is dead or [successors < 1]. *)

val route_hops : t -> src:int -> key:int -> int
(** As {!route} with every node alive, but raising on failure (for
    benchmarks). *)

(** {1 Routing under node failures} *)

(* ftr-lint: disable T6 -- ROADMAP item 19: only test_baselines uses it *)
val successor_list : t -> id:int -> r:int -> int list
(** The first [r] nodes at or after [id], clockwise — Chord's successor
    list, its fallback when fingers die. *)

type failure_row = {
  fail_fraction : float;
  failed_r1 : float;  (** failed searches with a 1-entry successor list *)
  failed_r4 : float;  (** with 4 successors *)
  hops_r4 : float;  (** mean hops of successful r=4 searches *)
}

val failure_sweep :
  ?n:int -> ?fractions:float list -> ?messages:int -> seed:int -> unit -> failure_row list
(** Chord's failed-search fractions under the Section 6 failure model, for
    the paper's "appear to perform as well as theirs" comparison. *)
