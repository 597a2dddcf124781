(* T6 fixture: named only through t6_via.ml's [include], as
   Ftr_p2p.Message is through Ftr_svc.Message. *)

val included : int -> int
