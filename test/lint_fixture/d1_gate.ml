(* D1 gate-dominance fixture. [bad], [half] and [batched] each carry one
   telemetry write that some path from function entry reaches without a
   Flag.enabled check (three positives); [good] and [traced] are fully
   dominated, including the lib/core/route.ml idiom of a gate variable
   captured by a helper closure, and must stay silent. *)

(* Positive: no gate anywhere. *)
let bad () = Ftr_obs.Metrics.incr "lint_fixture_bad"

(* Positive: the first write is gated, the second sits after the join
   where the gate no longer dominates. *)
let half c =
  if Ftr_obs.Flag.enabled () then Ftr_obs.Metrics.incr "half_gated";
  if c then Ftr_obs.Metrics.incr "half_ungated"

(* Negative: classic gate. *)
let good () = if Ftr_obs.Flag.enabled () then Ftr_obs.Events.emit ~kind:"fixture" []

(* Negative: gate variable conjoining both gate families, captured by a
   helper closure defined under no branch — the closure inherits the
   gate through its own body's check, as route.ml's [record_excluded]
   does. *)
let traced () =
  let tr = Ftr_obs.Tracing.null in
  let live = Ftr_obs.Flag.enabled () && Ftr_obs.Tracing.is_live tr in
  let record n = if live then Ftr_obs.Tracing.hop tr ~node:n in
  if live then begin
    Ftr_obs.Tracing.set_context tr ~nodes:"all" ~links:"all" ~strategy:"fixture";
    record 1
  end;
  record 2

(* Positive: the batched histogram update is a telemetry write too. *)
let batched values = Ftr_obs.Metrics.observe_ints "lint_fixture_batch" values (Array.length values)
