(** The hash table over the live protocol ({!Ftr_p2p.Overlay}): ownership
    is resolved by routed lookups at operation time, so it tracks joins,
    leaves and crashes; crashed nodes lose their local tables and salted
    replication plus anti-entropy {!rebalance} restore availability.

    All operations are asynchronous in virtual time — callbacks fire when
    the overlay's lookups resolve, so run the engine after issuing them. *)

type t

val create : ?replicas:int -> line_size:int -> Ftr_p2p.Overlay.t -> t
(** Empty store bound to an overlay (default: one replica).
    @raise Invalid_argument if [replicas < 1]. *)

val put : t -> from:int -> key:string -> value:string -> unit
(** Store the pair at the current owner of every replica point, located by
    routed lookups issued from the live node [from]. *)

val get : t -> from:int -> key:string -> callback:(string option -> unit) -> unit
(** Look replica points up in salt order; the callback fires with the
    first value found, or [None] once every replica has missed. *)

val leave_with_handoff : t -> pos:int -> int
(** Graceful departure: splice the node out of the ring, then re-put every
    pair it held so the data survives the departure (unlike a crash).
    Returns the number of pairs handed off; their lookups resolve as the
    engine runs. *)

val rebalance : t -> int
(** Anti-entropy sweep: every stored pair is re-put from its holder,
    repairing ownership drift and replica counts after churn. Returns the
    number of pairs re-put (their lookups resolve as the engine runs).
    Sweeps never delete: a copy at a former owner stays behind as extra
    redundancy until that node dies, so {!stored_pairs} can exceed
    [pairs × replicas] after drift. *)

val stored_pairs : t -> int
(** Pairs currently held by live nodes (replicas count). *)

type stats = { puts : int; gets : int; get_hits : int }

val stats : t -> stats
(** Operation counters ([get_hits] counts gets whose callback received a
    value). *)
