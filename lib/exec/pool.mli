(** A pool of OCaml 5 domains with chunked work distribution and a
    deterministic contract: {!map} returns results in job-index order, so
    output never depends on how jobs landed on workers.

    One scheduler serves both entry points: a crew of [jobs] workers is
    the calling domain (worker 0) plus [jobs - 1] spawned domains, all
    pulling chunks of indices from one atomic cursor. {!map} is one round
    on a crew of its own (none when it runs inline, see below); a
    {!resident} crew keeps its domains parked between rounds.

    Parallel execution only changes {e wall-clock}, never results,
    provided each job is a pure function of its index (and of a generator
    derived from the index — see {!Seed}). Every worker runs jobs with
    {!Ftr_obs} telemetry suppressed ([Ftr_obs.Flag.suppress_in_domain]),
    the caller included while it drains: the registries are not
    domain-safe, so the caller records the pool's own metrics
    ([exec_jobs_completed_total], [exec_pool_workers],
    [exec_queue_depth], the per-worker [exec_worker_busy_seconds]
    histogram and the [exec.pool.run] span) once the round is over.
    Consequence: per-hop metrics recorded inside jobs only appear in
    sequential runs — the determinism contract covers merged results, not
    telemetry (docs/PARALLELISM.md). *)

(* ftr-lint: disable T6 -- seam: test_exec reads the fallback flag with_sequential_forced sets *)
val sequential_forced : unit -> bool
(** [true] when the environment demands the sequential fallback
    ([FTR_EXEC_SEQ] set to [1], [true], [on] or [yes]). Read per call, so
    {!with_sequential_forced} takes effect immediately. *)

val with_sequential_forced : bool -> (unit -> 'a) -> 'a
(** [with_sequential_forced on f] runs [f] with [FTR_EXEC_SEQ] set to [1]
    ([on]) or [0], then restores the previous value, also when [f] raises.
    A variable that was unset comes back as [0], which reads as not
    forced. *)

val default_jobs : unit -> int
(** Worker count used when [?jobs] is omitted: 1 when
    {!sequential_forced} or when [Domain.recommended_domain_count ()] is
    1, else the recommended domain count. *)

val map : ?jobs:int -> count:int -> (int -> 'a) -> 'a array
(** [map ~count f] evaluates [f i] for every [i] in [0, count) and
    returns [[| f 0; ...; f (count-1) |]]. With [jobs = 1], [count <= 1],
    {!sequential_forced} (which wins over an explicit [~jobs]) or inside a
    worker, everything runs on the calling domain; otherwise the caller
    and [min jobs count - 1] spawned domains pull chunks of indices from
    a shared atomic cursor. A job's exception is re-raised on the caller
    once all workers have joined.
    @raise Invalid_argument if [count < 0] or [jobs < 1]. *)

(** {1 Resident pool}

    {!map} spawns fresh domains per call — fine for sweeps, dominant for
    a serving loop that fans out thousands of sub-millisecond rounds. A
    [resident] keeps its [jobs - 1] domains parked on a condition
    variable between rounds, and the caller of {!run_resident} drains the
    round as worker 0. The mutex hand-offs at round start/end give
    happens-before edges in both directions, so effects written by
    workers during a round are visible to the caller when {!run_resident}
    returns — the guarantee {!Ftr_svc}'s barrier-separated mailbox
    discipline is built on (docs/SERVICE.md). *)

type resident
(** A crew: the caller plus parked worker domains. The worker count is
    fixed at creation: {!sequential_forced}, a single-job request, or
    creation from inside another pool's worker all degrade the crew to
    inline sequential execution. *)

val run_resident : resident -> count:int -> (int -> unit) -> unit
(** One round: evaluate [f i] for every [i] in [0, count), effects only.
    Each index is run exactly once; which worker runs it is unspecified,
    so only effects keyed by index (e.g. writing slot [i] of a
    caller-owned array) are deterministic. The caller drains as worker 0
    under the workers' domain state (telemetry suppressed, nested crews
    inline), restored before this returns, then blocks until every
    parked worker has drained the round. A job's exception is re-raised
    here after the round settles; indices not yet claimed when a job
    raised may be skipped, so a raising round's effects are unspecified.
    @raise Invalid_argument if [count < 0] or after shutdown. *)

val resident_jobs : resident -> int
(** Effective parallelism of the crew, the caller included (1 when
    degraded to inline). *)

val with_resident : ?jobs:int -> (resident -> 'a) -> 'a
(** Spawn the crew's [jobs - 1] domains ([jobs] defaults to
    {!default_jobs}), run [f] on it, then stop and join the workers,
    exception-safe. Rounds on the crew after [f] returns raise. With
    telemetry on, shutdown adds the crew's rounds (inline ones included)
    to [exec_resident_rounds_total].
    @raise Invalid_argument if [jobs < 1]. *)

val map_seeded :
  ?jobs:int -> seed:int -> count:int -> (index:int -> rng:Ftr_prng.Rng.t -> 'a) -> 'a array
(** {!map} with each job handed its {!Seed.rng_for}-derived generator.
    Under [FTR_CHECK=1] asserts that no job received the sweep's root
    generator (physically or as an identical stream) — the regression the
    derivation scheme exists to prevent. *)
