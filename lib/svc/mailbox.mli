(** The service's tick inbox: every actor's mail, delivered one tick at
    a time.

    Destinations are dense ids ([0, 1, 2, ...]), one per actor. Posts
    arrive through a fixed number of lanes, one writer each: in the
    service, lane 0 is the coordinator's and lane [1 + s] is shard [s]'s
    outbox. A post waits in its lane until {!admit} counts it against
    its destination's bound, and {!deliver} turns every admitted post
    into this tick's mail: each destination's entries side by side,
    sorted by the delivery key [(src, seq)] (sender, per-sender sequence
    number). The key is strict — senders never reuse a sequence number —
    so the order a destination's mail is drained in is a pure function
    of what was posted, never of the lane or the order it arrived in.

    Concurrency contract — the seam [ftr_lint] T1 sanctions: during a
    round each shard's worker posts only into its own lane and drains
    only its own destinations; the coordinator admits, delivers and
    posts into lane 0 between rounds; and the round barrier
    ([Pool.run_resident]'s mutex hand-off, or [Domain.join] under
    [Pool.map]) sequences the two, so the inbox needs no lock
    (docs/SERVICE.md). *)

type 'a t

val create : ?capacity:int -> lanes:int -> vacant:'a -> unit -> 'a t
(** An empty inbox with [lanes] lanes that takes at most [capacity]
    (default 4096) deliveries per destination per tick. [vacant] fills
    the payload cells no entry holds; it is never handed to a handler.
    @raise Invalid_argument if [capacity < 1] or [lanes < 1]. *)

val post : 'a t -> lane:int -> dst:int -> src:int -> seq:int -> 'a -> unit
(** Queue a payload for [dst] in [lane]; it counts from the next
    {!admit} of that lane.
    @raise Invalid_argument if [dst < 0]. *)

val admit : 'a t -> lane:int -> ('b -> dst:int -> src:int -> seq:int -> 'a -> unit) -> 'b -> unit
(** [admit t ~lane f x] counts [lane]'s posts since its last admission,
    in the order they were posted. A post whose destination already has
    [capacity] posts admitted for the next tick is dropped — the
    bounded-inbox rule, in arrival order: it is counted in {!dropped},
    handed to [f x ~dst ~src ~seq payload] and never delivered. *)

val deliver : 'a t -> unit
(** Start a tick: every admitted post becomes the mail {!drain} hands
    out, sorted by destination and then by [(src, seq)], and the lanes
    empty.
    @raise Invalid_argument if the last tick's mail is not all drained,
    or a lane holds posts not admitted yet. *)

val drain : 'a t -> int -> ('b -> src:int -> seq:int -> 'a -> unit) -> 'b -> unit
(** [drain t dst f x] calls [f x ~src ~seq payload] for each of [dst]'s
    delivered entries, in [(src, seq)] order, after the entry has left
    the inbox (its payload cell holds [vacant] again). [x] carries the
    caller's context, so a drain needs no closure. What [f] posts waits
    for the next {!deliver}. *)

val length : 'a t -> int -> int
(** [dst]'s delivered entries not drained yet. *)

val pending : 'a t -> int -> int
(** [dst]'s admitted posts, waiting for the next {!deliver}. *)

val posted : 'a t -> int
(** All admitted posts waiting for the next {!deliver}. *)

val destinations : 'a t -> int
(** One past the largest destination id the inbox has admitted. *)

val capacity : 'a t -> int

val dropped : 'a t -> int
(** Posts refused at capacity since creation. *)

val high_water : 'a t -> int
(** The most posts one destination ever had admitted for one tick. *)

val keys : 'a t -> int -> (int * int) list
(** [dst]'s undrained delivered [(src, seq)] keys in stored order, for
    validators. *)

val well_ordered : 'a t -> bool
(** Whether every destination's undrained mail is stored strictly
    increasing in [(src, seq)] — the invariant
    {!Ftr_check.Check.mailbox} re-checks. *)
