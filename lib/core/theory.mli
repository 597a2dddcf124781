(** Closed-form bounds from Table 1 and the probabilistic-recurrence tools
    of Section 4.1, as executable formulas.

    Upper bounds return the paper's explicit constants, so a simulated mean
    delivery time can be asserted [<=] the formula; lower bounds return the
    leading term with constant 1 and are meant for shape comparisons. *)

val lg : int -> float
(** Base-2 logarithm. @raise Invalid_argument if [n <= 0]. *)

val upper_single_link : int -> float
(** Theorem 12: [2 H_n²] with one long link per node. *)

val upper_multi_link : links:int -> int -> float
(** Theorem 13: [(1 + lg n) · 8 H_n / ℓ] with ℓ links. *)

val upper_deterministic : base:int -> int -> float
(** Theorem 14: [⌈log_b n⌉] hops with digit-fixing links. *)

val upper_link_failure : links:int -> present_p:float -> int -> float
(** Theorem 15: Theorem 13's bound divided by the link-survival
    probability. *)

val upper_geometric_link_failure : base:int -> present_p:float -> int -> float
(** Theorem 16: [1 + 2(b-q)H_{n-1}/p] for geometric links surviving with
    probability [p], [q = 1-p]. *)

val upper_node_failure : links:int -> death_p:float -> int -> float
(** Theorem 18: Theorem 13's bound divided by the node-survival
    probability [1 - death_p]. *)

val lower_one_sided : links:int -> int -> float
(** Theorem 10, one-sided: [log²n / (ℓ log log n)]. *)

(* ftr-lint: disable T6 -- oracle: test_aggregate bounds the two-sided chain by it *)
val lower_two_sided : links:int -> int -> float
(** Theorem 10, two-sided: [log²n / (ℓ² log log n)]. *)

val lower_large_links : links:int -> int -> float
(** Theorem 3: [log n / log ℓ] for large ℓ. *)

val kuw_upper_bound : mu:(int -> float) -> x0:int -> float
(** Lemma 1 evaluated by unit steps: [Σ_{z=1..x0} 1/μ(z)], an upper bound
    on the expected absorption time of a non-increasing chain with
    non-decreasing drift [μ]. *)

val theorem12_drift : n:int -> int -> float
(** The drift bound [μ_k > k / 2H_n] used in Theorem 12's proof. *)

val theorem2_lower_bound : t:float -> epsilon:float -> float
(** Inequality (8): [T / (εT + (1-ε))]. *)

val theorem10_integral : m:(float -> float) -> ln_n:float -> steps:int -> float
(** The proof's integral [∫_0^{ln n} dz / m(z)] by the trapezoid rule. *)
