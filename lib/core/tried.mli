(** The set of links one route has tried: CSR slot indices ([offsets.(u)
    + k] for link [k] of node [u]), as the Section 6 backtracking strategy
    needs them. {!Stuck.t} holds one for the search {!Route}, {!Multidim}
    and {!Byzantine} run.

    Its size follows the route, not the network: 64 cells to start, doubled
    whenever more than half are full. Once grown, {!add} and {!mem}
    allocate nothing, and {!clear} is O(1). Not thread-safe. *)

type t

val create : unit -> t
(** An empty set with the initial 64 cells. *)

val clear : t -> unit
(** Empty the set in O(1), keeping its cells. *)

val add : t -> int -> unit
(** Add a slot index (a no-op when present). *)

val mem : t -> int -> bool
(** Whether the slot index was added since the last {!clear}. *)
