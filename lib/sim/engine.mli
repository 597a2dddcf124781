(** Sequential discrete-event simulation engine.

    Events are closures scheduled at virtual times; same-time events run in
    scheduling order so a run is a deterministic function of its inputs and
    seed. The dynamic protocol ([Ftr_p2p]) runs join/leave/lookup traffic on
    top of this engine. *)

type t
(** An engine: event queue plus virtual clock. *)

type handle
(** Identifies a scheduled event so it can be cancelled. *)

val create : unit -> t
(** Fresh engine at time 0 with an empty queue. *)

val now : t -> float
(** Current virtual time. *)

val schedule_at : t -> time:float -> (unit -> unit) -> handle
(** Schedule an action at an absolute virtual time.
    @raise Invalid_argument if the time is NaN or in the past. *)

val schedule_after : t -> delay:float -> (unit -> unit) -> handle
(** Schedule an action [delay] after the current time.
    @raise Invalid_argument on a negative delay. *)

val cancel : t -> handle -> unit
(** Cancel a scheduled event (no-op if it already ran). *)

val run : ?max_events:int -> ?until:float -> t -> unit
(** Run until the queue empties, [max_events] events have executed, or the
    next event lies beyond [until]. *)

val pending_events : t -> int
(** Events scheduled and not yet executed or cancelled. *)

val executed_events : t -> int
(** Total events executed so far. *)

val drain : t -> unit
(** Discard all pending events. *)

val pending_slots : t -> (float * int) array
(** [(time, seq)] of every queued event in internal heap-array order
    (cancelled-but-not-yet-popped events included), so the sanitizer can
    re-check heap order and clock monotonicity from outside. *)
