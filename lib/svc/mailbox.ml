(* The service's tick inbox. Every message the service carries is
   delivered at the next tick, so no queue needs a delivery time: one
   inbox per service, rebuilt each tick, holds all of it.

   Posts go into lanes, one writer each, as flat arrays in arrival
   order; a post costs a few array writes and no lookup. [admit] counts
   a lane's new posts per destination; the count is where the
   bounded-inbox rule bites, so a drop is decided in arrival order (lane
   by lane, in the order the owner admits them) and the dropped post is
   marked and cleared, never delivered. [deliver] is a counting sort by
   destination: the counts become offsets in destination-id order, and
   each admitted post's (src, seq) and payload reference are scattered
   into its destination's slice, kept sorted by (src, seq) as they go in
   (an insertion step). The posts arrive as a few runs, each already
   ascending in (src, seq) — in the service, the control posts, the dead
   actors' bounces and the shard outboxes — so a cell moves only where
   one run overtakes another; a destination's mail is in key order
   whatever the arrival order was. The key is strict (a sender never
   reuses a sequence number), so no tie is left for arrival order to
   break.

   The payloads never move. Each lane double-buffers its payload array:
   [deliver] swaps the posted array in as the delivered one, and a slice
   cell names its payload by lane and index. The drained array, all
   [vacant] again, takes the lane's next posts. A drain overwrites each
   payload cell it hands out with [vacant], so a handled message is
   garbage as soon as its handler drops it.

   Concurrency contract (the seam ftr_lint T1 sanctions): during a round
   each shard's worker posts only into its own lane and drains only its
   own destinations — it writes its lane, its destinations' cursors and
   its payload cells, nothing shared — and the coordinator admits,
   delivers and posts into its own lane between rounds. The round
   barrier (Pool's mutex hand-off, or Domain.join under Pool.map)
   sequences the two, so the inbox needs no lock (docs/SERVICE.md). *)

type 'a lane = {
  mutable dst : int array; (* -1 once refused *)
  mutable src : int array;
  mutable seq : int array;
  mutable msg : 'a array; (* the posted payloads *)
  mutable delivered : 'a array; (* the payloads the last [deliver] handed over *)
  mutable n : int; (* posts since the last [deliver] *)
  mutable admitted : int; (* of which counted by [admit] *)
}

type 'a t = {
  capacity : int; (* posts one destination takes per tick *)
  vacant : 'a; (* what every payload cell no entry holds contains *)
  lanes : 'a lane array;
  bits : int; (* a cell's payload is [lanes.(ix land mask).delivered.(ix lsr bits)] *)
  mutable count : int array; (* by destination: admitted posts *)
  mutable queued : int; (* their sum *)
  (* Delivered by the last [deliver]: destination [d]'s undrained mail is
     the cells [span.(2d), span.(2d + 1)), and cell [k] is the entry
     (src, seq, ix) at [cell.(3k)], [cell.(3k + 1)], [cell.(3k + 2)] — one
     cache line per cell and per span, wherever the scatter lands. *)
  mutable span : int array;
  mutable cell : int array;
  mutable dropped : int;
  mutable high_water : int;
}

let default_capacity = 4096

let create ?(capacity = default_capacity) ~lanes ~vacant () =
  if capacity < 1 then invalid_arg "Mailbox.create: capacity must be >= 1";
  if lanes < 1 then invalid_arg "Mailbox.create: lanes must be >= 1";
  let rec bits b = if 1 lsl b >= lanes then b else bits (b + 1) in
  {
    capacity;
    vacant;
    lanes =
      Array.init lanes (fun _ ->
          { dst = [||]; src = [||]; seq = [||]; msg = [||]; delivered = [||]; n = 0; admitted = 0 });
    bits = bits 0;
    count = [||];
    queued = 0;
    span = [||];
    cell = [||];
    dropped = 0;
    high_water = 0;
  }

let capacity t = t.capacity

let dropped t = t.dropped

let high_water t = t.high_water

let posted t = t.queued

let destinations t = Array.length t.count

let[@inline] length t dst =
  if dst >= 0 && 2 * dst < Array.length t.span then t.span.((2 * dst) + 1) - t.span.(2 * dst)
  else 0

let pending t dst = if dst >= 0 && dst < Array.length t.count then t.count.(dst) else 0

(* [a], or a copy twice as large when index [n] is past its end; the
   new cells hold [fill]. *)
let room a n fill =
  if n < Array.length a then a
  else begin
    let b = Array.make (max 16 (2 * n)) fill in
    Array.blit a 0 b 0 (Array.length a);
    b
  end

let[@inline] post t ~lane ~dst ~src ~seq msg =
  if dst < 0 then invalid_arg "Mailbox.post: negative destination";
  let l = t.lanes.(lane) in
  let i = l.n in
  if i >= Array.length l.dst || i >= Array.length l.msg then begin
    l.dst <- room l.dst i 0;
    l.src <- room l.src i 0;
    l.seq <- room l.seq i 0;
    l.msg <- room l.msg i t.vacant
  end;
  l.dst.(i) <- dst;
  l.src.(i) <- src;
  l.seq.(i) <- seq;
  l.msg.(i) <- msg;
  l.n <- i + 1

let admit t ~lane f x =
  let l = t.lanes.(lane) in
  for i = l.admitted to l.n - 1 do
    let d = l.dst.(i) in
    if d >= Array.length t.count then t.count <- room t.count d 0;
    let c = t.count.(d) in
    if c < t.capacity then begin
      t.count.(d) <- c + 1;
      t.queued <- t.queued + 1;
      if c >= t.high_water then t.high_water <- c + 1
    end
    else begin
      let m = l.msg.(i) in
      l.dst.(i) <- -1;
      l.msg.(i) <- t.vacant;
      t.dropped <- t.dropped + 1;
      f x ~dst:d ~src:l.src.(i) ~seq:l.seq.(i) m
    end
  done;
  l.admitted <- l.n

(* Scatter lane [lane]'s admitted posts into their destinations' slices,
   each slice kept sorted by (src, seq): a newcomer below the cell
   before it moves down past the cells it precedes. [j] is a cell's
   first int. *)
let scatter t lane =
  let l = t.lanes.(lane) in
  let span = t.span and cell = t.cell in
  for i = 0 to l.n - 1 do
    let d = l.dst.(i) in
    if d >= 0 then begin
      let s = l.src.(i) and q = l.seq.(i) and k = span.((2 * d) + 1) in
      span.((2 * d) + 1) <- k + 1;
      let j = ref (3 * k) and first = 3 * span.(2 * d) in
      while !j > first && (cell.(!j - 3) > s || (cell.(!j - 3) = s && cell.(!j - 2) > q)) do
        cell.(!j) <- cell.(!j - 3);
        cell.(!j + 1) <- cell.(!j - 2);
        cell.(!j + 2) <- cell.(!j - 1);
        j := !j - 3
      done;
      cell.(!j) <- s;
      cell.(!j + 1) <- q;
      cell.(!j + 2) <- (i lsl t.bits) lor lane
    end
  done

let deliver t =
  let nd = Array.length t.count and n = t.queued in
  Array.iter
    (fun l -> if l.admitted < l.n then invalid_arg "Mailbox.deliver: a lane holds unadmitted posts")
    t.lanes;
  let undrained () = invalid_arg "Mailbox.deliver: the last tick is not drained" in
  if Array.length t.span < 2 * nd then begin
    for d = 0 to (Array.length t.span / 2) - 1 do
      if length t d > 0 then undrained ()
    done;
    t.span <- Array.make (2 * nd) 0
  end;
  if Array.length t.cell < 3 * n then t.cell <- Array.make (3 * max 16 (2 * n)) 0;
  (* Offsets in destination order; a span's end is the scatter cursor. *)
  let span = t.span and count = t.count in
  let at = ref 0 in
  for d = 0 to nd - 1 do
    if span.(2 * d) < span.((2 * d) + 1) then undrained ();
    span.(2 * d) <- !at;
    span.((2 * d) + 1) <- !at;
    at := !at + count.(d);
    count.(d) <- 0
  done;
  for lane = 0 to Array.length t.lanes - 1 do
    scatter t lane;
    let l = t.lanes.(lane) in
    let drained = l.delivered in
    l.delivered <- l.msg;
    l.msg <- drained;
    l.n <- 0;
    l.admitted <- 0
  done;
  t.queued <- 0

let[@inline] drain t dst f x =
  if dst >= 0 && 2 * dst < Array.length t.span then begin
    let span = t.span and cell = t.cell and mask = (1 lsl t.bits) - 1 in
    while span.(2 * dst) < span.((2 * dst) + 1) do
      let k = span.(2 * dst) in
      span.(2 * dst) <- k + 1;
      let c = cell.((3 * k) + 2) in
      let payloads = t.lanes.(c land mask).delivered and i = c lsr t.bits in
      let m = payloads.(i) in
      payloads.(i) <- t.vacant;
      f x ~src:cell.(3 * k) ~seq:cell.((3 * k) + 1) m
    done
  end

let keys t dst =
  List.init (length t dst) (fun j ->
      let k = t.span.(2 * dst) + j in
      (t.cell.(3 * k), t.cell.((3 * k) + 1)))

let well_ordered t =
  let rec ordered = function
    | a :: (b :: _ as rest) -> compare a b < 0 && ordered rest
    | [ _ ] | [] -> true
  in
  let rec all d = 2 * d >= Array.length t.span || (ordered (keys t d) && all (d + 1)) in
  all 0
