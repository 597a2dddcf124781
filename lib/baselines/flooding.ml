module Csr = Ftr_graph.Adjacency.Csr
module Rng = Ftr_prng.Rng

(* Unstructured overlay in the Gnutella mould: every node links to
   [degree] uniformly random peers (made symmetric so floods travel both
   ways). *)
let random_overlay ~n ~degree rng =
  if n < 2 then invalid_arg "Flooding.random_overlay: need at least two nodes";
  if degree < 1 then invalid_arg "Flooding.random_overlay: degree must be >= 1";
  let buckets = Array.make n [] in
  for u = 0 to n - 1 do
    for _ = 1 to degree do
      let rec pick () =
        let v = Rng.int rng n in
        if v = u then pick () else v
      in
      let v = pick () in
      buckets.(u) <- v :: buckets.(u);
      buckets.(v) <- u :: buckets.(v)
    done
  done;
  Csr.of_rows (Array.map (fun l -> Array.of_list (List.sort_uniq Int.compare l)) buckets)

type result = { found : bool; messages : int; rounds : int }

(* Breadth-first flood with a TTL: every node that receives the query for
   the first time forwards it to all its neighbours. [messages] counts
   every forwarded copy — the cost the paper's introduction holds against
   flooding-based systems. *)
let search ?(ttl = max_int) graph ~src ~dst =
  let n = Csr.size graph in
  if src < 0 || src >= n || dst < 0 || dst >= n then invalid_arg "Flooding.search: out of range";
  if src = dst then { found = true; messages = 0; rounds = 0 }
  else begin
    let seen = Array.make n false in
    seen.(src) <- true;
    let frontier = ref [ src ] in
    let messages = ref 0 in
    let rec go round =
      if round >= ttl || !frontier = [] then { found = false; messages = !messages; rounds = round }
      else begin
        let next = ref [] in
        let hit = ref false in
        List.iter
          (fun u ->
            Csr.iter_row graph u (fun v ->
                incr messages;
                if v = dst then hit := true;
                if not seen.(v) then begin
                  seen.(v) <- true;
                  next := v :: !next
                end))
          !frontier;
        if !hit then { found = true; messages = !messages; rounds = round + 1 }
        else begin
          frontier := !next;
          go (round + 1)
        end
      end
    in
    go 0
  end
