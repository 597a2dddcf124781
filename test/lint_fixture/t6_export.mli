(* T6 fixtures for a unit with an .mli: [unused] is named by no other
   unit, [own_only] only by t6_export.ml itself and [tested] only by
   test/test_lint_typed.ml (three findings, on their lines here);
   [used] is named by t6_noint.ml, and [kept] (by no one) and
   [tested_kept] (by the test alone) sit under suppressions. *)

val unused : int -> int

val own_only : int -> int

val used : int -> int

val tested : int -> int

(* ftr-lint: disable T6 -- the fixture's suppressed export *)
val kept : int -> int

(* ftr-lint: disable T6 -- the fixture's suppressed test-only export *)
val tested_kept : int -> int
