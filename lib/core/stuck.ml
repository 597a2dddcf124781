(* ftr-lint: hot -- the Section 6 route state and its step, once per hop of Route, Multidim, Byzantine *)

module I32 = Ftr_graph.Adjacency.I32

type reason = No_live_neighbor | Hop_limit | No_live_reroute_target

type outcome =
  | Delivered of { hops : int }
  | Failed of { hops : int; stuck_at : int; reason : reason }

type move = Forward | Lost | Popped | Stuck

(* The tried set of a state that has never tracked a route. Nothing
   writes it: [start] swaps in a state's own set before the first route
   that tracks, and [step] adds only while tracking. *)
let untracked = Tried.create ()

(* The window is the [len] newest entries of the ring [hist] from
   [start]; [history] bounds [len] for the current route. *)
type t = {
  mutable tried : Tried.t;
  mutable track : bool;
  mutable hist : int array;
  mutable start : int;
  mutable len : int;
  mutable history : int;
  mutable cur : int;
  mutable dst : int;
  mutable hops : int;
  mutable any : bool;
}

let create () =
  (* ftr-lint: disable T1 -- never written, see [untracked] *)
  { tried = untracked; track = false; hist = [||]; start = 0; len = 0; history = 0; cur = 0; dst = 0;
    hops = 0; any = false }

let start t ~track ~history ~src ~dst =
  if history < 0 then invalid_arg "Stuck.start: negative history";
  if track then
    (* ftr-lint: disable T1 -- compared, never written *)
    if t.tried == untracked then t.tried <- Tried.create () else Tried.clear t.tried;
  if Array.length t.hist < history then t.hist <- Array.make history 0;
  t.track <- track;
  t.history <- history;
  t.start <- 0;
  t.len <- 0;
  t.cur <- src;
  t.dst <- dst;
  t.hops <- 0;
  t.any <- false

let tried t = t.tried
let[@inline] cur t = t.cur
let[@inline] dst t = t.dst
let[@inline] hops t = t.hops
let[@inline] strict t = not t.any
let retarget t dst = t.dst <- dst

(* Every forward move pushes the departing node, also after a pop, so a
   node's untried links stay reachable while it is in the window
   (depth-first search with a bounded stack); a push at capacity drops
   the oldest entry, as consing onto a list trimmed to [history] would.
   [dst] never enters the window, so testing [cur = dst] after a pop or
   a retry is harmless. *)
let[@inline] step ?eaten t ~offsets ~targets k =
  if k >= 0 then begin
    (* [k] indexes [cur]'s row of a CSR validated when it was built. *)
    let c = t.cur in
    let slot = I32.unsafe_get offsets c + k in
    let v = I32.unsafe_get targets slot in
    if t.track then Tried.add t.tried slot;
    t.hops <- t.hops + 1;
    (* An eaten message costs its hop; the link stays tried and the
       sender retries in the same mode. *)
    if match eaten with Some f -> f v | None -> false then Lost
    else begin
      if t.history > 0 then begin
        t.start <- (if t.start = 0 then Array.length t.hist else t.start) - 1;
        Array.unsafe_set t.hist t.start c;
        if t.len < t.history then t.len <- t.len + 1
      end;
      t.cur <- v;
      t.any <- false;
      Forward
    end
  end
  else if t.len = 0 then Stuck
  else begin
    (* Travelling back to the previous node costs a hop. *)
    t.cur <- Array.unsafe_get t.hist t.start;
    t.start <- (if t.start + 1 = Array.length t.hist then 0 else t.start + 1);
    t.len <- t.len - 1;
    t.hops <- t.hops + 1;
    t.any <- true;
    Popped
  end

let outcome t reason =
  if t.cur = t.dst then Delivered { hops = t.hops } else Failed { hops = t.hops; stuck_at = t.cur; reason }

let search ?eaten t ~history ~max_hops ~csr ~scan ~src ~dst =
  let { Ftr_graph.Adjacency.Csr.offsets; targets } = csr in
  start t ~track:true ~history ~src ~dst;
  let rec go () =
    if t.cur = dst || t.hops >= max_hops then outcome t Hop_limit
    else
      match step ?eaten t ~offsets ~targets (scan (if t.any then `Any else `Strict) t.cur) with
      | Stuck -> outcome t No_live_neighbor
      | Forward | Lost | Popped -> go ()
  in
  go ()
