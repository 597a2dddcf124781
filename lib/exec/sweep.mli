(** The task layer: expand a parameter grid into independent jobs, run
    them on the {!Pool}, and merge results in job order.

    The determinism contract (docs/PARALLELISM.md): a job's result is a
    function of the sweep [seed] and the job's index only — its generator
    comes from {!Seed.rng_for}, never from worker identity — and results
    are returned in index order, so the merged output is byte-identical
    for any worker count, including the sequential fallback. *)

type ('p, 'r) t
(** A sweep: an ordered parameter array plus the per-job function. *)

val create : run:(index:int -> rng:Ftr_prng.Rng.t -> 'p -> 'r) -> 'p list -> ('p, 'r) t
(** [create ~run params] — job [i] computes [run ~index:i ~rng params_i]
    with [rng = Seed.rng_for ~seed ~index:i]. *)

val size : ('p, 'r) t -> int

val grid3 : 'a list -> 'b list -> 'c list -> ('a * 'b * 'c) list
(** Cartesian product in row-major order: the first axis varies
    slowest. *)

val grid4 : 'a list -> 'b list -> 'c list -> 'd list -> ('a * 'b * 'c * 'd) list

val run : ?jobs:int -> seed:int -> ('p, 'r) t -> 'r array
(** Run every job and return results in job order. [?jobs] defaults to
    {!Pool.default_jobs} and never changes the results. *)

val run_checkpointed :
  ?jobs:int ->
  ?wave:int ->
  ?fresh:bool ->
  path:string ->
  seed:int ->
  encode:('r -> Ftr_obs.Json.t) ->
  decode:(Ftr_obs.Json.t -> 'r option) ->
  ('p, 'r) t ->
  'r array
(** Like {!run}, journalling completed jobs to the {!Checkpoint} at
    [path]: jobs already journalled are decoded instead of re-run
    (a record [decode] rejects is re-run), and fresh results are
    journalled in waves of [wave] jobs (default 32) so an interrupted
    sweep loses at most one wave. The merged output is byte-identical to
    an uninterrupted {!run} as long as [decode] inverts [encode]
    exactly — encode floats by bits, not by decimal rendering.
    [~fresh:true] discards any existing journal.
    @raise Failure on a journal header mismatch (see {!Checkpoint}). *)
