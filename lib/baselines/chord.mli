(** Chord finger-table routing (Stoica et al., Section 3 of the paper).

    Nodes sit on an identifier circle; node u's j-th finger is the first
    node succeeding [u + 2^j]. Greedy clockwise routing reaches the node
    responsible for any key in O(log n) hops — the comparison point for the
    paper's claim that structured overlays share the embedded-metric-space
    shape. *)

type t

val create : ring_size:int -> node_ids:int array -> t
(** Ring of the given size populated by the given (distinct) identifiers.
    @raise Invalid_argument on duplicates or out-of-range ids. *)

val create_full : n:int -> t
(** Every identifier of a size-[n] ring occupied — the densest instance,
    directly comparable to the paper's full line. *)

val successor : t -> int -> int
(** Identifier of the node responsible for a key (first node at or after
    it, clockwise). *)

val fingers_of : t -> id:int -> int array
(** The finger table of the node responsible for [id]. *)

val route : ?max_hops:int -> t -> src:int -> key:int -> int option
(** Hops for greedy clockwise routing from the node at [src] to the node
    responsible for [key]; [None] only if the hop budget is exhausted. *)

val route_hops : t -> src:int -> key:int -> int
(** As {!route} but raising on failure (for benchmarks). *)

(** {1 Routing under node failures} *)

val successor_list : t -> id:int -> r:int -> int list
(** The first [r] nodes at or after [id], clockwise — Chord's successor
    list, its fallback when fingers die. *)

val route_with_failures :
  ?max_hops:int -> ?successors:int -> t -> alive:(int -> bool) -> src:int -> key:int ->
  int option
(** Greedy finger routing that skips dead fingers and falls back to the
    first live entry of an [successors]-long successor list; [None] when
    even the fallbacks are all dead (or the hop budget runs out).
    @raise Invalid_argument if an endpoint is dead or [successors < 1]. *)

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
