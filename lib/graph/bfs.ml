module Csr = Adjacency.Csr

let distances graph ~src =
  let n = Csr.size graph in
  if src < 0 || src >= n then invalid_arg "Bfs.distances: source out of range";
  let dist = Array.make n (-1) in
  let queue = Queue.create () in
  dist.(src) <- 0;
  Queue.add src queue;
  while not (Queue.is_empty queue) do
    let u = Queue.pop queue in
    Csr.iter_row graph u (fun v ->
        if dist.(v) < 0 then begin
          dist.(v) <- dist.(u) + 1;
          Queue.add v queue
        end)
  done;
  dist

let reachable_count graph ~src =
  Array.fold_left (fun acc d -> if d >= 0 then acc + 1 else acc) 0 (distances graph ~src)

let is_strongly_connected graph =
  let n = Csr.size graph in
  n = 0
  || (reachable_count graph ~src:0 = n
     && reachable_count (Csr.reverse graph) ~src:0 = n)
