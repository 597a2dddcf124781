module Pool = Ftr_exec.Pool
module Seed = Ftr_exec.Seed

(* Batch routing on the exec pool. Determinism comes from three choices:
   the chunk grid is a pure function of (count, chunk) — never of the
   worker count; each route's generator is derived from (seed, global
   route index) by [Seed.rng_for], not drawn from a shared stream; and
   [Pool.map] returns chunk results in job-index order. The merged vector
   is therefore byte-identical across --jobs 1/2/4 and FTR_EXEC_SEQ=1
   (qcheck-pinned, and re-asserted by bench.scale on every @perf run).

   A {!Route.Terminate} chunk goes through [Route.route_lockstep], which
   (with telemetry off in the running domain) keeps several routes in
   flight so their cache misses overlap; its routes share only read-only
   state, so the contract above holds unchanged. The other strategies
   route one pair at a time: rerouting draws from a per-route generator
   across several legs, and backtracking routes share their domain's
   scratch, whose tried-link set is cleared at the start of each route
   (interleaved routes would mix their tried links). *)

let default_chunk = 1024

(* One scratch per domain, kept across calls. A route that tries many
   links grows the scratch's table; a fresh scratch per chunk would grow
   it again on every call, and ftrbench's route_faulty (64-pair calls,
   40% of nodes failed) pays for that garbage in peak RSS and p99
   latency. A chunk runs on one domain and [Route.route] calls nothing
   back, so no two routes ever hold the scratch at once. *)
let scratch_key = Domain.DLS.new_key Stuck.create

let run ?jobs ?(chunk = default_chunk) ?failures ?side ?strategy ?max_hops ?(seed = 0) net
    ~pairs =
  if chunk < 1 then invalid_arg "Route_batch.run: chunk must be >= 1";
  let count = Array.length pairs in
  if count = 0 then [||]
  else begin
    (* Only Random_reroute consumes randomness; the derivation per route
       index is skipped entirely for the deterministic strategies. *)
    let needs_rng, terminate =
      match strategy with
      | Some (Route.Random_reroute _) -> (true, false)
      | Some Route.Backtrack _ -> (false, false)
      | Some Route.Terminate | None -> (false, true)
    in
    let chunks = (count + chunk - 1) / chunk in
    let route_one i =
      let src, dst = pairs.(i) in
      let rng = if needs_rng then Some (Seed.rng_for ~seed ~index:i) else None in
      let scratch = Domain.DLS.get scratch_key in
      Route.route ?failures ?side ?strategy ?max_hops ?rng ~scratch net ~src ~dst
    in
    let per_chunk =
      Pool.map ?jobs ~count:chunks (fun c ->
          let lo = c * chunk in
          let len = min chunk (count - lo) in
          if terminate then
            Route.route_lockstep ?failures ?side ?max_hops net ~pairs:(Array.sub pairs lo len)
          else Array.init len (fun k -> route_one (lo + k)))
    in
    Array.concat (Array.to_list per_chunk)
  end
