(** Many routes per {!Ftr_exec.Pool} job — the batch layer that turns the
    single-message router into an aggregate-throughput engine.

    [run] partitions the request vector into fixed-size chunks (a pure
    function of the pair count, never of the worker count) and routes
    each chunk as one job of an {!Ftr_exec.Pool.iter} round: one
    {!Route.route_lockstep} call, with its domain's lane states, writing
    the chunk's outcomes into its own cells of the result vector. With
    telemetry on, the call is timed as the [route_batch.run] span on the
    calling domain. The vector is byte-identical across
    [--jobs 1/2/4] and [FTR_EXEC_SEQ=1]: per-route generators are derived
    from [(seed, route index)] with {!Ftr_exec.Seed.rng_for}, so no route
    observes another's randomness regardless of scheduling.

    {!Route.route_lockstep} keeps as many routes in flight as the
    strategy's width (16 for {!Route.Terminate} and
    {!Route.Random_reroute}, 1 for {!Route.Backtrack}; one for every
    strategy while telemetry is on), so their cache misses overlap. The
    outcomes are the same at any width. *)

val run :
  ?jobs:int ->
  ?chunk:int ->
  ?failures:Failure.t ->
  ?side:Route.side ->
  ?strategy:Route.strategy ->
  ?max_hops:int ->
  ?seed:int ->
  Network.t ->
  pairs:(int * int) array ->
  Route.outcome array
(** [run net ~pairs] routes every [(src, dst)] pair and returns the
    outcomes in request order. [jobs] defaults to
    {!Ftr_exec.Pool.default_jobs}; [chunk] (default 1024)
    trades scheduling overhead against load balance; [seed] (default 0)
    feeds the per-route generator derivation used by
    {!Route.Random_reroute}. Route options mean exactly what they mean on
    {!Route.route}, and each outcome is the one {!Route.route} returns for
    its pair.
    @raise Invalid_argument if [chunk < 1] or any endpoint is out of
    range or dead, with {!Route.route}'s message. *)
