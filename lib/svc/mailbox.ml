(* A deterministic actor mailbox. Entries are kept sorted by the delivery
   key (deliver_at, sender, per-sender sequence number) at all times, so
   draining is "take the due prefix" and the order a drain hands messages
   to the handler is a pure function of what was posted — never of which
   domain posted first or how the scheduler interleaved rounds. The key is
   strict: a sender never reuses a sequence number, so no two entries
   compare equal and there is no tie left for arrival order to break.

   Storage is flat: an int array holding each entry's key as three
   consecutive cells (time, src, seq) — one cache line serves a whole
   key — and a payload array beside it; the live entries are the window
   [head, tail). A drain advances [head]; a
   post shifts the few later entries up one cell and writes the newcomer
   (usually at [tail], since deliveries are posted mostly in key order).
   Steady traffic therefore allocates nothing: the arrays grow only when
   a window outgrows them. Every payload cell outside the window holds
   [vacant], never a drained message — a stale reference there would keep
   a dead payload alive into the major heap.

   Concurrency contract (the seam ftr_lint T1 sanctions): the coordinator
   posts between rounds, the owning shard's worker drains during a round,
   and the round barrier (Pool.run_resident's mutex hand-off, or
   Domain.join under Pool.map) sequences the two — the mailbox itself
   needs no lock because it is never touched from two domains without a
   barrier between the accesses (docs/SERVICE.md). *)

type 'a t = {
  mutable head : int; (* first live entry *)
  mutable tail : int; (* one past the last; live entries are sorted by (time, src, seq) *)
  mutable key : int array; (* entry i's (time, src, seq) at 3i, 3i+1, 3i+2 *)
  mutable msg : 'a array;
  capacity : int;
  vacant : 'a; (* what every payload cell outside [head, tail) holds *)
  mutable dropped : int;
  mutable high_water : int;
}

let default_capacity = 4096

(* Cells a new mailbox starts with. Allocating them with the mailbox
   keeps a registry built in position order laid out in that order. *)
let initial_cells = 4

let create ?(capacity = default_capacity) ~vacant () =
  if capacity < 1 then invalid_arg "Mailbox.create: capacity must be >= 1";
  let cells = min capacity initial_cells in
  {
    head = 0;
    tail = 0;
    key = Array.make (3 * cells) 0;
    msg = Array.make cells vacant;
    capacity;
    vacant;
    dropped = 0;
    high_water = 0;
  }

let capacity t = t.capacity

let length t = t.tail - t.head

let dropped t = t.dropped

let high_water t = t.high_water

let is_empty t = t.tail = t.head

(* Whether the stored entry [i] comes after the key (time, src, seq) in
   the delivery order. *)
let[@inline] later t i ~time ~src ~seq =
  let k = t.key and j = 3 * i in
  k.(j) > time || (k.(j) = time && (k.(j + 1) > src || (k.(j + 1) = src && k.(j + 2) > seq)))

(* Make room for one more entry at [tail]. The window moves to the front
   of arrays of [size] cells: the same arrays when they are less than
   half full (slide down over the drained prefix), else arrays twice as
   large, up to [capacity]. The cells the window leaves get [vacant]. *)
let make_room t =
  let n = length t and old = Array.length t.msg in
  let size = if 2 * n < old then old else min t.capacity (2 * old) in
  if size = old then begin
    Array.blit t.key (3 * t.head) t.key 0 (3 * n);
    Array.blit t.msg t.head t.msg 0 n;
    Array.fill t.msg n (t.tail - n) t.vacant
  end
  else begin
    let key = Array.make (3 * size) 0 and msg = Array.make size t.vacant in
    Array.blit t.key (3 * t.head) key 0 (3 * n);
    Array.blit t.msg t.head msg 0 n;
    t.key <- key;
    t.msg <- msg
  end;
  t.head <- 0;
  t.tail <- n

(* Insertion keeps the window sorted: the entries that come after the
   newcomer shift up one cell, which costs nothing for the usual
   in-order post and O(length) at worst — fine at mailbox scale (a
   node's in-flight fan-in, not a queue of the whole network). Posting
   past capacity drops the newcomer deterministically — the
   bounded-mailbox rule — and the drop is accounted so the
   no-lost-message invariant can tell overflow from a scheduler bug. *)
let post t ~time ~src ~seq msg =
  if length t >= t.capacity then begin
    t.dropped <- t.dropped + 1;
    false
  end
  else begin
    if t.tail = Array.length t.msg then make_room t;
    let i = ref t.tail in
    while !i > t.head && later t (!i - 1) ~time ~src ~seq do
      Array.blit t.key (3 * (!i - 1)) t.key (3 * !i) 3;
      t.msg.(!i) <- t.msg.(!i - 1);
      decr i
    done;
    let k = t.key and j = 3 * !i in
    k.(j) <- time;
    k.(j + 1) <- src;
    k.(j + 2) <- seq;
    t.msg.(!i) <- msg;
    t.tail <- t.tail + 1;
    if length t > t.high_water then t.high_water <- length t;
    true
  end

let[@inline] due t ~now = t.head < t.tail && t.key.(3 * t.head) <= now

(* Pop every entry due at or before [now] off the head, in delivery
   order, handing each to [f x] once it is already out of the mailbox:
   its cell holds [vacant] again, and an emptied mailbox restarts at
   the front of its arrays. [x] is the caller's context, so a drain
   needs no closure over it. *)
let drain_due t ~now f x =
  while due t ~now do
    let i = t.head in
    let src = t.key.((3 * i) + 1) and seq = t.key.((3 * i) + 2) and msg = t.msg.(i) in
    t.msg.(i) <- t.vacant;
    if i + 1 = t.tail then begin
      t.head <- 0;
      t.tail <- 0
    end
    else t.head <- i + 1;
    f x ~src ~seq msg
  done

(* The stored keys in stored order, for the invariant validators: the
   sanitizer re-checks that this is strictly increasing under the
   delivery order. *)
let keys t =
  List.init (length t) (fun k ->
      let j = 3 * (t.head + k) in
      (t.key.(j), t.key.(j + 1), t.key.(j + 2)))

let well_ordered t =
  let rec from i =
    let j = 3 * i in
    i + 1 >= t.tail
    || (later t (i + 1) ~time:t.key.(j) ~src:t.key.(j + 1) ~seq:t.key.(j + 2) && from (i + 1))
  in
  from t.head
