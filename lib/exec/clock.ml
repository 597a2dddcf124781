(* The one place in lib/exec allowed to read the wall clock (ftr_lint T2
   allowlists this file); everything else calls [now]. *)

let default () = Unix.gettimeofday ()

let clock = ref default

let set f = clock := f

let reset () = clock := default

(* The injection point is written by [set]/[reset] before the pool spawns
   domains; workers only dereference. ftr-lint: disable T1 *)
let now () = !clock ()
