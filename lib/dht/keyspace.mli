(** The hash function of Section 2: keys to metric-space points.

    The point of a key is permanent — computable by any node, unaffected by
    failures — which is exactly why the paper builds on a metric space.
    Replication uses domain-separated salts so each replica lands at an
    independent point. *)

(* ftr-lint: disable T6 -- ROADMAP item 19: only test_dht pins its vectors *)
val fnv1a64 : string -> int64
(** Raw FNV-1a 64-bit hash. *)

(* ftr-lint: disable T6 -- ROADMAP item 19: only test_dht uses it *)
val hash64 : string -> int64
(** FNV-1a with a SplitMix64 finaliser (well-mixed in every bit). *)

val point : line_size:int -> string -> int
(** The key's home point on a line of [line_size] grid points.
    @raise Invalid_argument if [line_size < 1]. *)

val replica_point : line_size:int -> salt:int -> string -> int
(** The key's [salt]-th replica point; salt 0 is {!point}.
    @raise Invalid_argument on a negative salt. *)
