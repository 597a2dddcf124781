(* T6 fixture: re-exports T6_base; t6_noint.ml names [T6_via.included]. *)
include T6_base
