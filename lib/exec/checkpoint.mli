(** JSONL journal of completed sweep jobs, so an interrupted sweep can
    resume by skipping what is already done.

    Format (one JSON object per line, written via {!Ftr_obs.Json}):
    - line 1, the header: [{"kind":"sweep","seed":S,"jobs_total":N}] —
      the sweep's identity; resuming against a journal whose header
      disagrees with the live sweep is refused rather than silently
      merging incompatible results;
    - every other line: [{"job":I,"result":R}] with [0 <= I < N] and [R]
      the job's encoded result.

    A journal killed mid-write ends in a truncated line; {!open_} ignores
    any line that does not parse (and any out-of-range or duplicate
    index, keeping the first), so resume degrades to re-running at most
    the one job whose record was cut. Appends are flushed per record:
    after [append] returns, that job survives a kill. *)

type t

exception Bad_journal of string
(** An existing journal {!open_} will not resume from, with the file and
    the defect named: its first line is not a sweep header, or the
    header names a different seed or job count. *)

val open_ : ?fresh:bool -> path:string -> seed:int -> count:int -> unit -> t
(** Open (creating parent directories as needed) the journal at [path]
    for a sweep of [count] jobs rooted at [seed]. An existing journal is
    read and its completed jobs exposed via {!completed}; a missing or
    empty one is started with a fresh header. [~fresh:true] truncates any
    existing journal first.
    @raise Bad_journal if an existing journal does not start with a
    header, or its header names a different seed or job count. *)

val completed : t -> (int * Ftr_obs.Json.t) list
(** Jobs already journalled, in increasing index order, as read at
    {!open_} time (appends after opening are not re-read). *)

val append : t -> index:int -> Ftr_obs.Json.t -> unit
(** Journal one completed job and flush.
    @raise Invalid_argument if [index] is outside [0, count). *)

val close : t -> unit
(** Close the journal's channel. Idempotent. *)
