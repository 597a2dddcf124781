(* T1-positive: a genuine cross-function domain race. [run] hands [job]
   to the worker pool; [job] calls [bump]; [bump] mutates the toplevel
   [tally] table with no Atomic/Mutex/DLS seam anywhere on the path. No
   single line here is suspicious on its own — only the call-graph
   analysis connects the pool boundary to the mutation. *)

let tally : (int, int) Hashtbl.t = Hashtbl.create 16

let bump i =
  let n = match Hashtbl.find_opt tally i with Some n -> n | None -> 0 in
  Hashtbl.replace tally i (n + 1)

let job i =
  bump (i mod 4);
  i

let run n = Ftr_exec.Pool.map ~count:n job
