(* T2 fixtures. [jitter], [stamp], [cpu] and [tick] read a source
   directly; [sample] is tainted through the call graph; the
   module-initialisation read has no binding and is flagged where it
   happens (six positives). [draw]/[sample_det] use the seeded
   generator and stay clean. *)

let jitter () = Random.int 1000

let stamp () = Unix.gettimeofday ()

let cpu () = Sys.time ()

let sample x = x + jitter ()

let draw rng = Ftr_prng.Rng.int rng 10

let sample_det rng x = x + draw rng

let () = ignore (Sys.time ())

let tick () = Monotonic_clock.clock_linux_get_time ()
