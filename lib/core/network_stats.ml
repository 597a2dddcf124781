(* Structural anatomy of an overlay: the quantities the paper's arguments
   lean on without plotting — in-degree balance (every incoming link is
   routing capacity and an attack surface), link-length spread, and how
   much the line's boundary distorts the distribution. *)

module Summary = Ftr_stats.Summary

let out_degree_summary net =
  let s = Summary.create () in
  for i = 0 to Network.size net - 1 do
    Summary.add_int s (Network.degree net i)
  done;
  s

let in_degrees net =
  let n = Network.size net in
  let degrees = Array.make n 0 in
  for i = 0 to n - 1 do
    Network.iter_neighbors net i (fun j -> degrees.(j) <- degrees.(j) + 1)
  done;
  degrees

let in_degree_summary net = Summary.of_array (Array.map float_of_int (in_degrees net))

let length_percentiles net =
  let lengths =
    Array.of_list (List.map float_of_int (Network.long_link_lengths net))
  in
  if Array.length lengths = 0 then None
  else
    Some
      ( Ftr_stats.Quantile.compute lengths 0.5,
        Ftr_stats.Quantile.compute lengths 0.9,
        Ftr_stats.Quantile.compute lengths 0.99 )

(* Boundary distortion: mean long-link length of nodes in the middle third
   of the line over that of nodes in the outer sixths. On a circle this is
   1 by symmetry; on the line, edge nodes reach farther (their whole mass
   points inward). *)
let boundary_distortion net =
  let n = Network.size net in
  if n < 6 then invalid_arg "Network_stats.boundary_distortion: network too small";
  let middle = Summary.create () and edge = Summary.create () in
  for i = 0 to n - 1 do
    let bucket =
      if i < n / 6 || i >= n - (n / 6) then Some edge
      else if i >= n / 3 && i < n - (n / 3) then Some middle
      else None
    in
    match bucket with
    | None -> ()
    | Some s ->
        let ring_left, ring_right =
          match Network.geometry net with
          | Network.Line -> (i - 1, i + 1)
          | Network.Circle -> ((i - 1 + n) mod n, (i + 1) mod n)
        in
        let seen_left = ref false and seen_right = ref false in
        Network.iter_neighbors net i (fun j ->
            let is_ring =
              (j = ring_left && not !seen_left
              &&
              (seen_left := true;
               true))
              || j = ring_right
                 && (not !seen_right)
                 &&
                 (seen_right := true;
                  true)
            in
            if not is_ring then Summary.add_int s (Network.distance net i j))
  done;
  Summary.mean edge /. Summary.mean middle

type anatomy = {
  nodes : int;
  mean_out_degree : float;
  mean_in_degree : float;
  max_in_degree : int;
  in_degree_hotspot : float;
  median_length : float;
  p90_length : float;
  p99_length : float;
  boundary_distortion : float;
}

let anatomy net =
  let in_s = in_degree_summary net in
  let med, p90, p99 =
    match length_percentiles net with Some t -> t | None -> (nan, nan, nan)
  in
  {
    nodes = Network.size net;
    mean_out_degree = Summary.mean (out_degree_summary net);
    mean_in_degree = Summary.mean in_s;
    max_in_degree = int_of_float (Summary.max_value in_s);
    (* >1 means some node is a disproportionate routing target. For the
       1/d network this stays small; nothing concentrates. *)
    in_degree_hotspot = Summary.max_value in_s /. Summary.mean in_s;
    median_length = med;
    p90_length = p90;
    p99_length = p99;
    boundary_distortion = boundary_distortion net;
  }
