(** The paper's construction lifted to higher-dimensional spaces — the
    first future-work direction of Section 7 ("whether similar strategies
    would work for higher-dimensional spaces").

    Nodes fill a d-dimensional torus; every node keeps its 2d lattice
    neighbours plus [links] long-distance links drawn with probability
    proportional to [distance^-alpha] (default [alpha = dims], Kleinberg's
    optimal exponent, which coincides with the paper's exponent-1 law when
    [dims = 1]). Greedy routing and the failure strategies carry over
    unchanged, through the line router's own search ({!route}). *)

type t

val build : ?alpha:float -> ?links:int -> dims:int -> side:int -> Ftr_prng.Rng.t -> t
(** A [side^dims] torus overlay. Defaults: [alpha = float dims], one long
    link. @raise Invalid_argument if [dims < 1], [side < 3] or
    [links < 0]. *)

val size : t -> int
(** Number of nodes. *)

(* ftr-lint: disable T6 -- oracle: test_multidim routes these rows as a circle network *)
val csr : t -> Ftr_graph.Adjacency.Csr.t
(** The neighbour rows as a flat CSR pair (no copy — do not mutate): node
    [u]'s row lists its lattice neighbours and long links by node index,
    sorted non-decreasing, duplicates kept. *)

type strategy = Terminate | Backtrack of { history : int }

val route :
  ?alive:(int -> bool) ->
  ?strategy:strategy ->
  ?max_hops:int ->
  t ->
  src:int ->
  dst:int ->
  Route.outcome
(** Greedy routing toward [dst] over live nodes with the line model's
    stuck-message semantics: {!Stuck.search} over the torus distance, with
    no window for [Terminate]. On a [dims = 1] torus it gives the outcome
    {!Route.route} gives on the same rows as a circle network.
    @raise Invalid_argument on off-torus or dead endpoints, or a
    [Backtrack] history below 1. *)
