(* T2 fixtures. [jitter], [stamp] and [cpu] read a nondeterminism
   source directly; [sample] is transitively nondeterministic through
   the call graph; the module-initialisation read at the bottom has no
   binding and is flagged where it happens (five positives).
   [draw]/[sample_det] use the seeded generator and stay clean. *)

let jitter () = Random.int 1000

let stamp () = Unix.gettimeofday ()

let cpu () = Sys.time ()

let sample x = x + jitter ()

let draw rng = Ftr_prng.Rng.int rng 10

let sample_det rng x = x + draw rng

let () = ignore (Sys.time ())
