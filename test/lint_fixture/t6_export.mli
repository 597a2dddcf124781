(* T6 fixtures for a unit with an .mli: [unused] is named by no other
   unit and [own_only] only by t6_export.ml itself (two findings, on
   their lines here); [used] is named by t6_noint.ml, [tested] only by
   test/test_lint_typed.ml (the review list, not a finding), and [kept]
   by no one, under a suppression. *)

val unused : int -> int

val own_only : int -> int

val used : int -> int

val tested : int -> int

(* ftr-lint: disable T6 -- the fixture's suppressed export *)
val kept : int -> int
