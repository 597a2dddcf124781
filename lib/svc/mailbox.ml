(* A deterministic actor mailbox. Entries are kept sorted by the delivery
   key (deliver_at, sender, per-sender sequence number) at all times, so
   draining is "take the due prefix" and the order a drain hands messages
   to the handler is a pure function of what was posted — never of which
   domain posted first or how the scheduler interleaved rounds. The key is
   strict: a sender never reuses a sequence number, so no two entries
   compare equal and there is no tie left for arrival order to break.

   Concurrency contract (the seam ftr_lint T1 sanctions): the coordinator
   posts between rounds, the owning shard's worker drains during a round,
   and the round barrier (Pool.run_resident's mutex hand-off, or
   Domain.join under Pool.map) sequences the two — the mailbox itself
   needs no lock because it is never touched from two domains without a
   barrier between the accesses (docs/SERVICE.md). *)

type 'a entry = { e_time : int; e_src : int; e_seq : int; e_msg : 'a }

type 'a t = {
  capacity : int;
  mutable entries : 'a entry list; (* sorted by (e_time, e_src, e_seq) *)
  mutable length : int;
  mutable dropped : int;
  mutable high_water : int;
}

let default_capacity = 4096

let create ?(capacity = default_capacity) () =
  if capacity < 1 then invalid_arg "Mailbox.create: capacity must be >= 1";
  { capacity; entries = []; length = 0; dropped = 0; high_water = 0 }

let capacity t = t.capacity

let length t = t.length

let dropped t = t.dropped

let high_water t = t.high_water

let is_empty t = t.length = 0

(* The delivery order. *)
let precedes a b =
  a.e_time < b.e_time
  || (a.e_time = b.e_time
     && (a.e_src < b.e_src || (a.e_src = b.e_src && a.e_seq < b.e_seq)))

(* Insertion keeps the list sorted; O(length), which is fine at mailbox
   scale (a node's in-flight fan-in, not a queue of the whole network).
   Posting past capacity drops the newcomer deterministically — the
   bounded-mailbox rule — and the drop is accounted so the no-lost-message
   invariant can tell overflow from a scheduler bug. *)
let post t ~time ~src ~seq msg =
  if t.length >= t.capacity then begin
    t.dropped <- t.dropped + 1;
    false
  end
  else begin
    let e = { e_time = time; e_src = src; e_seq = seq; e_msg = msg } in
    let rec insert = function
      | [] -> [ e ]
      | hd :: _ as l when precedes e hd -> e :: l
      | hd :: tl -> hd :: insert tl
    in
    t.entries <- insert t.entries;
    t.length <- t.length + 1;
    if t.length > t.high_water then t.high_water <- t.length;
    true
  end

let due t ~now = match t.entries with e :: _ -> e.e_time <= now | [] -> false

(* Pop every entry due at or before [now] off the head, in delivery
   order, handing each to [f] once it is already out of the mailbox. *)
let rec drain_due t ~now f =
  match t.entries with
  | e :: rest when e.e_time <= now ->
      t.entries <- rest;
      t.length <- t.length - 1;
      f e;
      drain_due t ~now f
  | _ :: _ | [] -> ()

(* The stored keys in stored order, for the invariant validators: the
   sanitizer re-checks that this is strictly increasing under the
   delivery order. *)
let keys t = List.map (fun e -> (e.e_time, e.e_src, e.e_seq)) t.entries

let well_ordered t =
  let rec check = function
    | a :: (b :: _ as tl) -> precedes a b && check tl
    | [ _ ] | [] -> true
  in
  check t.entries
