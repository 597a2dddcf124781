(** Adversarial node failures (Section 4.3.4.2).

    The paper conjectures that deterministic link structures are fragile
    against targeted failures: an adversary who knows the structure can cut
    any node off by killing the O(log n) predictable positions its incoming
    links come from, while the randomized 1/d network hides its links
    behind coin flips. This module makes that conjecture executable. *)

val structural_positions : n:int -> base:int -> target:int -> int list
(** The positions [target ± base^i] on the line — every in-neighbour of
    [target] in a {!Network.build_geometric} network.
    @raise Invalid_argument on bad parameters. *)

val structural_mask : n:int -> base:int -> target:int -> Ftr_graph.Bitset.t
(** Aliveness mask with exactly those positions dead (the target lives). *)

val blockade_mask : n:int -> target:int -> radius:int -> Ftr_graph.Bitset.t
(** Aliveness mask for the blockade. *)

type isolation_result = {
  kills : int;  (** nodes the adversary removed *)
  geometric_failed : float;  (** failed-search fraction on the Theorem 16 network *)
  random_failed : float;  (** failed-search fraction on the 1/d network *)
}

val isolation_experiment :
  ?n:int -> ?base:int -> ?links:int -> ?trials:int -> seed:int -> unit -> isolation_result
(** Apply the same structural kill list to a geometric network and to a
    randomized network (equal link budgets) and measure backtracking-search
    failure fractions against random targets. Expected: the geometric
    network fails essentially always, the random network essentially
    never. *)

val highest_in_degree_mask : Network.t -> kills:int -> Ftr_graph.Bitset.t
(** Aliveness mask with the [kills] highest-in-degree nodes dead — the
    classic hub attack. @raise Invalid_argument on a bad kill count. *)

type degree_attack_result = {
  attack_kills : int;
  random_failed : float;  (** failed fraction after killing a random set *)
  targeted_failed : float;  (** after killing the highest-in-degree set *)
}

val degree_attack_experiment :
  ?kills_fraction:float -> ?messages:int -> net:Network.t -> seed:int -> unit ->
  degree_attack_result
(** Kill the same number of nodes at random and by descending in-degree,
    and compare backtracking-search failure fractions. On the egalitarian
    1/d overlay the two are close; link-concentrating constructions give
    the targeted attacker an edge. *)
