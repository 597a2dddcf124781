(** Gnutella-style flooding over an unstructured random overlay
    (Section 3): the paper's motivating bad baseline, trading per-node
    state for per-query message explosions. *)

val random_overlay : n:int -> degree:int -> Ftr_prng.Rng.t -> Ftr_graph.Adjacency.Csr.t
(** Symmetric random overlay where every node initiates [degree] links to
    uniform peers. @raise Invalid_argument if [n < 2] or [degree < 1]. *)

type result = {
  found : bool;  (** whether the flood reached the target *)
  messages : int;  (** total query copies forwarded *)
  rounds : int;  (** BFS depth at which the target was hit *)
}

val search : ?ttl:int -> Ftr_graph.Adjacency.Csr.t -> src:int -> dst:int -> result
(** Flood from [src] until [dst] is hit, the TTL expires, or the frontier
    dies out. @raise Invalid_argument on out-of-range endpoints. *)
