(** Harmonic numbers [H_n = sum_{k=1..n} 1/k].

    They normalise the paper's inverse power-law link distribution and appear
    in every bound of Table 1 (e.g. the single-link delivery time O(H_n²) of
    Theorem 12). *)

val number : int -> float
(** Exact [H_n] by direct summation; [number 0 = 0].
    @raise Invalid_argument if [n < 0]. *)

val approx : int -> float
(** Asymptotic expansion [ln n + γ + 1/2n - 1/12n²]; accurate to ~1e-9 for
    n ≥ 10. @raise Invalid_argument if [n <= 0]. *)

val table : int -> float array
(** [table n] has [H_k] at index [k], for [k = 0..n]. *)

val generalized : exponent:float -> int -> float
(** Generalized harmonic number [sum_{k=1..n} k^-exponent]. *)
