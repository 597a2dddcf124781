(* D2 snapshot-unvalidated fixture. The protocol is matched by suffix
   pattern, so local stand-ins for Snapshot/Check/Route exercise the
   automaton without touching the real modules: a network loaded with
   ~validate:false must flow through a validator before it reaches a
   routing sink. *)

module Snapshot = struct
  let load ~validate path = ignore validate; String.length path
end

module Check = struct
  let snapshot net = ignore net
end

module Route = struct
  let route net = net + 1
  let route_lockstep net = net + 2
end

(* Positive: unvalidated load flows straight into routing. *)
let bad path =
  let net = Snapshot.load ~validate:false path in
  Route.route net

(* Negative: validated before use. *)
let good path =
  let net = Snapshot.load ~validate:false path in
  Check.snapshot net;
  Route.route net

(* Negative: validation was never skipped. *)
let also_good path =
  let net = Snapshot.load ~validate:true path in
  Route.route net

(* Positive: the lockstep batch entry is a routing sink too. *)
let bad_batch path =
  let net = Snapshot.load ~validate:false path in
  Route.route_lockstep net
