(** Deterministic actor mailboxes.

    Entries are kept sorted by the delivery key [(deliver_at, sender,
    per-sender sequence)] at all times, so a drain hands messages to the
    handler in an order that is a pure function of what was posted —
    never of domain scheduling. The key is strict (senders never reuse a
    sequence number), so no two entries tie.

    Concurrency contract — the seam [ftr_lint] T1 sanctions: the
    coordinator posts between rounds, the owning shard's worker drains
    during a round, and the round barrier ([Pool.run_resident]'s mutex
    hand-off, or [Domain.join] under [Pool.map]) sequences the two, so
    the mailbox needs no lock (docs/SERVICE.md). *)

type 'a t

val create : ?capacity:int -> vacant:'a -> unit -> 'a t
(** An empty mailbox holding at most [capacity] (default 4096) entries.
    [vacant] fills the payload cells no entry holds; it is never handed
    to a handler.
    @raise Invalid_argument if [capacity < 1]. *)

val post : 'a t -> time:int -> src:int -> seq:int -> 'a -> bool
(** Insert at the delivery-order position; [false] means the mailbox was
    at capacity and the message was dropped (and counted in
    {!dropped}) — the bounded-mailbox rule. *)

val due : 'a t -> now:int -> bool
(** Whether the earliest pending entry is due at or before [now]. *)

val drain_due : 'a t -> now:int -> ('b -> src:int -> seq:int -> 'a -> unit) -> 'b -> unit
(** [drain_due t ~now f x] pops every entry due at or before [now] off
    the head, in delivery order, and calls [f x ~src ~seq payload] for
    each after it has left the mailbox (so {!length} already excludes
    it). [x] carries the caller's context, so a drain needs no closure.
    An entry the callback posts that is itself due is drained by the
    same call. *)

val capacity : 'a t -> int

val length : 'a t -> int

val dropped : 'a t -> int
(** Messages refused at capacity since creation. *)

val high_water : 'a t -> int
(** Maximum occupancy ever reached. *)

val is_empty : 'a t -> bool

val keys : 'a t -> (int * int * int) list
(** Stored [(time, src, seq)] keys in stored order, for validators. *)

val well_ordered : 'a t -> bool
(** Whether the stored order is strictly increasing under the delivery
    order — the invariant {!Ftr_check.Check.mailbox} re-checks. *)
