(** Injectable wall-clock seam for the execution subsystem, mirroring
    [Ftr_obs.Span.set_clock]: the pool's worker busy-time accounting reads
    the clock through this ref so tests can drive deterministic durations
    and the static analyzer can confine raw [Unix.gettimeofday] to one
    allowlisted definition (rule T2, docs/LINTING.md).

    The clock only feeds telemetry (worker busy seconds); simulation
    results never depend on it, which is exactly the property T2 guards:
    any *new* wall-clock read must come through here, where its influence
    is visibly limited to observability. *)

val now : unit -> float
(** Current time in seconds through the injected clock. The default is
    [Unix.gettimeofday], the finest-grained clock the stdlib toolchain
    offers here. *)

val set : (unit -> float) -> unit
(** Replace the clock. The injected function may be called from worker
    domains concurrently; injecting while a pool is running is a race and
    is only meant for tests. *)

val reset : unit -> unit
(** Restore the default wall clock. *)
