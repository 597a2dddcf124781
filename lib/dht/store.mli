(** The hash-table functionality the paper promises (Section 2), over a
    static {!Ftr_core.Network.t}.

    A key hashes to a point; the present node nearest that point (the
    basin owner) stores the value. With [replicas = k], the key is also
    stored at the owners of k-1 independent salted points, so reads
    survive the primary's failure. Routed variants pay the greedy-routing
    cost and respect failure views, so storage operations can be measured
    under exactly the Section 6 failure models. *)

type t

val create : ?replicas:int -> Ftr_core.Network.t -> t
(** Empty store over the network (default: one replica).
    @raise Invalid_argument if [replicas < 1]. *)

val network : t -> Ftr_core.Network.t
(** The underlying overlay. *)

val replica_owners : t -> string -> int list
(** Distinct owners of all the key's replica points, primary first. *)

val put : t -> key:string -> value:string -> unit
(** Store at every replica owner (no routing cost — the omniscient view
    used by tests and to seed experiments). *)

val get : t -> key:string -> string option
(** Read from the first replica owner holding the key. *)

val iter_stored : t -> (node:int -> key:string -> value:string -> unit) -> unit
(** Visit every stored (node, key, value) triple — replicas included — so
    the invariant sanitizer can audit key placement. *)

(** {1 Routed operations} *)

type routed = {
  value : string option;  (** the value, for gets that found one *)
  hops : int;  (** total message hops spent, over all attempted replicas *)
  reached : int list;  (** replica owners actually reached *)
}

val routed_get :
  ?failures:Ftr_core.Failure.t ->
  ?strategy:Ftr_core.Route.strategy ->
  ?rng:Ftr_prng.Rng.t ->
  t ->
  src:int ->
  key:string ->
  routed
(** Route to replica owners in salt order until one returns the value.
    @raise Invalid_argument if [src] is dead. *)
