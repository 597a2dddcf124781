(* ftr-lint: hot -- the Section 6 route memory and its step, once per hop of Route, Multidim, Byzantine *)

module I32 = Ftr_graph.Adjacency.I32

type reason = No_live_neighbor | Hop_limit | No_live_reroute_target

type outcome =
  | Delivered of { hops : int }
  | Failed of { hops : int; stuck_at : int; reason : reason }

(* The tried set of a state that has never started a route. Nothing
   writes it: [start] swaps in a state's own set before its first
   route. *)
let untracked = Tried.create ()

(* The window is the [len] newest entries of the ring [hist] from
   [start]; [history] bounds [len] for the current route. *)
type t = {
  mutable tried : Tried.t;
  mutable hist : int array;
  mutable start : int;
  mutable len : int;
  mutable history : int;
  mutable any : bool;
}

let create () =
  (* ftr-lint: disable T1 -- never written, see [untracked] *)
  { tried = untracked; hist = [||]; start = 0; len = 0; history = 0; any = false }

let start t ~history =
  if history < 0 then invalid_arg "Stuck.start: negative history";
  (* ftr-lint: disable T1 -- compared, never written *)
  if t.tried == untracked then t.tried <- Tried.create () else Tried.clear t.tried;
  if Array.length t.hist < history then t.hist <- Array.make history 0;
  t.history <- history;
  t.start <- 0;
  t.len <- 0;
  t.any <- false

let tried t = t.tried
let[@inline] strict t = not t.any

(* Every forward move pushes the departing node, also after a pop, so a
   node's untried links stay reachable while it is in the window
   (depth-first search with a bounded stack); a push at capacity drops
   the oldest entry, as consing onto a list trimmed to [history] would.
   The target never enters the window, so a caller testing for arrival
   after a pop is never fooled. *)
let[@inline] forward t ~cur ~slot =
  Tried.add t.tried slot;
  if t.history > 0 then begin
    t.start <- (if t.start = 0 then Array.length t.hist else t.start) - 1;
    Array.unsafe_set t.hist t.start cur;
    if t.len < t.history then t.len <- t.len + 1
  end;
  t.any <- false

let pop t =
  if t.len = 0 then -1
  else begin
    let y = Array.unsafe_get t.hist t.start in
    t.start <- (if t.start + 1 = Array.length t.hist then 0 else t.start + 1);
    t.len <- t.len - 1;
    t.any <- true;
    y
  end

let outcome ~cur ~dst ~hops reason =
  if cur = dst then Delivered { hops } else Failed { hops; stuck_at = cur; reason }

let search ?eaten t ~history ~max_hops ~csr ~scan ~src ~dst =
  let { Ftr_graph.Adjacency.Csr.offsets; targets } = csr in
  start t ~history;
  let rec go cur hops =
    if cur = dst || hops >= max_hops then outcome ~cur ~dst ~hops Hop_limit
    else
      let k = scan (if t.any then `Any else `Strict) cur in
      if k >= 0 then begin
        (* [k] indexes [cur]'s row of a CSR validated when it was built. *)
        let slot = I32.unsafe_get offsets cur + k in
        let v = I32.unsafe_get targets slot in
        (* An eaten message costs its hop; the link is tried and the
           sender retries in the same mode. *)
        if match eaten with Some f -> f v | None -> false then begin
          Tried.add t.tried slot;
          go cur (hops + 1)
        end
        else begin
          forward t ~cur ~slot;
          go v (hops + 1)
        end
      end
      else
        (* Travelling back to the previous node costs a hop. *)
        let y = pop t in
        if y < 0 then outcome ~cur ~dst ~hops No_live_neighbor else go y (hops + 1)
  in
  go src 0
