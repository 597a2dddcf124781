(* ftr-lint: hot -- the Section 6 backtracking step, once per hop of Route, Multidim, Byzantine *)

module I32 = Ftr_graph.Adjacency.I32

type reason = No_live_neighbor | Hop_limit | No_live_reroute_target

type outcome =
  | Delivered of { hops : int }
  | Failed of { hops : int; stuck_at : int; reason : reason }

type t = { tried : Tried.t; mutable hist : int array }

let create () = { tried = Tried.create (); hist = [||] }

let tried t = t.tried

(* One iteration per decision at [cur]; [any] is set while [cur] was
   reached by a pop. The window is the [len] newest entries of the ring
   [hist] from [start]. Every forward move pushes the departing node, also
   after a pop, so a node's untried links stay reachable while it is in
   the window (depth-first search with a bounded stack); a push at
   capacity drops the oldest entry, as consing onto a list trimmed to
   [history] would. [dst] never enters the window, so testing
   [cur = dst] after a pop or a retry is harmless. *)
let search ?moved ?backtracked ?eaten ?on_hop t ~history ~max_hops ~csr ~scan ~src ~dst =
  if history < 0 then invalid_arg "Stuck.search: negative history";
  if Array.length t.hist < history then t.hist <- Array.make history 0;
  let { Ftr_graph.Adjacency.Csr.offsets; targets } = csr in
  let hist = t.hist and tried = t.tried in
  let cap = Array.length hist in
  Tried.clear tried;
  let start = ref 0 and len = ref 0 in
  let cur = ref src and h = ref 0 and any = ref false in
  let running = ref true and stuck = ref false in
  while !running do
    let c = !cur in
    if c = dst || !h >= max_hops then running := false
    else begin
      let k = scan (if !any then `Any else `Strict) c in
      if k >= 0 then begin
        (* [k] indexes [c]'s row of a CSR validated when it was built. *)
        let slot = I32.unsafe_get offsets c + k in
        let v = I32.unsafe_get targets slot in
        Tried.add tried slot;
        (* An eaten message costs its hop; the link stays tried and the
           sender retries in the same mode. *)
        if not (match eaten with Some f -> f v | None -> false) then begin
          (match moved with Some f -> f c v (not !any) | None -> ());
          (match on_hop with Some f -> f v | None -> ());
          if history > 0 then begin
            start := (!start - 1 + cap) mod cap;
            hist.(!start) <- c;
            if !len < history then incr len
          end;
          cur := v;
          any := false
        end;
        incr h
      end
      else if !len = 0 then begin
        stuck := true;
        running := false
      end
      else begin
        (* Travelling back to the previous node costs a hop. *)
        let y = hist.(!start) in
        start := (!start + 1) mod cap;
        decr len;
        (match backtracked with Some f -> f c y | None -> ());
        incr h;
        (match on_hop with Some f -> f y | None -> ());
        cur := y;
        any := true
      end
    end
  done;
  if !cur = dst then Delivered { hops = !h }
  else
    Failed { hops = !h; stuck_at = !cur; reason = (if !stuck then No_live_neighbor else Hop_limit) }
