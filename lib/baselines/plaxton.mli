(** Tapestry-style prefix (digit-fixing) routing over a full b-ary
    namespace — the Plaxton scheme the paper's Section 3 describes, and the
    hypercube-routing cousin of Theorem 14's deterministic links. Delivery
    takes exactly the number of differing digit positions, at most
    [digits] hops, with [(base-1)·digits] table entries per node. *)

type t

val create : base:int -> digits:int -> t
(** Namespace of [base^digits] identifiers.
    @raise Invalid_argument on degenerate parameters or namespaces over
    2^30 identifiers. *)

(* ftr-lint: disable T6 -- ROADMAP item 19: only test_baselines uses it *)
val digit : t -> int -> position:int -> int
(** Digit of an identifier; position 0 is most significant.
    @raise Invalid_argument on a bad position. *)

(* ftr-lint: disable T6 -- ROADMAP item 19: only test_baselines uses it *)
val shared_prefix : t -> int -> int -> int
(** Leading digits two identifiers share. *)

(* ftr-lint: disable T6 -- ROADMAP item 19: only test_baselines uses the path *)
val route : t -> src:int -> dst:int -> int * int list
(** (hops, full path) of prefix routing. *)

val route_hops : t -> src:int -> dst:int -> int
(** Just the hop count. *)
