(* The sanitizer switch. Sits below every other library so that hot paths
   (heap sift, greedy hops, overlay repairs) can guard their self-checks on
   a single mutable bool — one load and one branch when off, nothing
   allocated. The full validator battery lives in [Ftr_check.Check], which
   depends on every layer; this module is the part both sides can see.

   Enable with the environment variable FTR_CHECK=1 (read once at start-up)
   or programmatically via [with_mode]. *)

exception Invariant_violation of string

let enabled_ref = ref (Switch.read "FTR_CHECK" ~default:false)

(* Workers only read; [with_mode] is harness-side and runs before the pool
   spawns domains. ftr-lint: disable T1 *)
let enabled () = !enabled_ref

(* Run [f] with checking forced on, restoring the previous mode. *)
(* ftr-lint: disable T6 -- seam: tests scope the sanitizer mode through it *)
let with_mode on f =
  let saved = !enabled_ref in
  enabled_ref := on;
  Fun.protect ~finally:(fun () -> enabled_ref := saved) f

let failf fmt = Printf.ksprintf (fun m -> raise (Invariant_violation m)) fmt

(* Guarded check: evaluates the (possibly expensive) condition only when
   the sanitizer is on. *)
let check cond fmt =
  if !enabled_ref then
    Printf.ksprintf (fun m -> if not (cond ()) then raise (Invariant_violation m)) fmt
  else Printf.ksprintf ignore fmt
