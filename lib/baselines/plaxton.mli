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

val size : t -> int
(** Number of identifiers. *)

val digit : t -> int -> position:int -> int
(** Digit of an identifier; position 0 is most significant.
    @raise Invalid_argument on a bad position. *)

val shared_prefix : t -> int -> int -> int
(** Leading digits two identifiers share. *)

val route : t -> src:int -> dst:int -> int * int list
(** (hops, full path) of prefix routing. *)

val route_hops : t -> src:int -> dst:int -> int
(** Just the hop count. *)

val differing_digits : t -> int -> int -> int
(** Positions where two identifiers disagree — provably the exact hop
    count of {!route}. *)
