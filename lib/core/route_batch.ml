module Pool = Ftr_exec.Pool
module Seed = Ftr_exec.Seed

(* Batch routing on the exec pool. Determinism comes from three choices:
   the chunk grid is a pure function of (count, chunk) — never of the
   worker count; each route's generator is derived from (seed, global
   route index) by [Seed.rng_for], not drawn from a shared stream; and
   each chunk writes only its own cells of the result vector. The vector
   is therefore byte-identical across --jobs 1/2/4 and FTR_EXEC_SEQ=1
   (qcheck-pinned, and re-asserted by bench.scale on every @perf run).

   Each chunk is one [Route.route_lockstep] call, as many routes in
   flight as the strategy's width; no route reads another's state or
   generator, so the contract holds at any width. The chunks run for
   their effects ([Pool.iter]): nothing is collected per chunk. *)

let default_chunk = 1024

(* Lane states per domain, kept across calls, one per lane of the widest
   strategy (16). A route that tries many links grows its lane's table;
   fresh states per chunk would grow them again on every call, and
   ftrbench's route_faulty (64-pair calls, 40% of nodes failed) pays for
   that garbage in peak RSS and p99 latency. A chunk runs on one domain
   and calls no hook, so no two routes ever hold a lane at once. *)
let scratch_key = Domain.DLS.new_key (fun () -> Array.init 16 (fun _ -> Stuck.create ()))

let run ?jobs ?(chunk = default_chunk) ?failures ?side ?strategy ?max_hops ?(seed = 0) net
    ~pairs =
  if chunk < 1 then invalid_arg "Route_batch.run: chunk must be >= 1";
  let count = Array.length pairs in
  let out = Array.make count (Route.Delivered { hops = 0 }) in
  (* Only Random_reroute consumes randomness; the derivation per route
     index is skipped entirely for the deterministic strategies. *)
  let rng =
    match strategy with
    | Some (Route.Random_reroute _) -> Some (fun i -> Seed.rng_for ~seed ~index:i)
    | Some (Route.Terminate | Route.Backtrack _) | None -> None
  in
  let route_chunk c =
    let lo = c * chunk in
    Route.route_lockstep ?failures ?side ?strategy ?max_hops ?rng
      ~scratch:(Domain.DLS.get scratch_key) net ~pairs ~lo ~len:(min chunk (count - lo)) ~out
  in
  (* The span is the caller's: the pool's workers record nothing. *)
  Ftr_obs.Span.time "route_batch.run" (fun () ->
      Pool.iter ?jobs ~count:((count + chunk - 1) / chunk) route_chunk);
  out
