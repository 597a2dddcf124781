(* The telemetry switch. Mirrors [Ftr_debug.Debug]: sits below every
   instrumented layer so hot paths (greedy hops, event dispatch, overlay
   repairs) can guard their metric updates and event emissions on a single
   mutable bool — one load and one branch when off, nothing allocated. The
   collectors themselves live in [Metrics], [Span] and [Events]; this
   module is the part every call site can afford to consult.

   Enable with the environment variable FTR_OBS=1 (read once at start-up)
   or programmatically via [set_mode]. *)

let enabled_ref = ref (Ftr_debug.Switch.read "FTR_OBS" ~default:false)

(* The collectors ([Metrics], [Span], [Events]) are plain hashtables and
   refs — fast, but not domain-safe. [Ftr_exec.Pool] therefore suppresses
   telemetry inside its worker domains (the coordinator records pool-level
   metrics on their behalf). Suppression is domain-local state so flipping
   it in a worker cannot blind the coordinator. The off fast path is
   unchanged: [enabled_ref] is read first and short-circuits before the
   DLS lookup. *)
let suppressed_key = Domain.DLS.new_key (fun () -> false)

(* Workers only read; writes ([set_mode]/[with_mode]) are harness-side and
   happen before the pool spawns domains. ftr-lint: disable T1 *)
let enabled () = !enabled_ref && not (Domain.DLS.get suppressed_key)

let suppress_in_domain on = Domain.DLS.set suppressed_key on

let set_mode on = enabled_ref := on

(* Run [f] with telemetry forced on (or off), restoring the previous mode. *)
let with_mode on f =
  let saved = !enabled_ref in
  enabled_ref := on;
  Fun.protect ~finally:(fun () -> enabled_ref := saved) f
