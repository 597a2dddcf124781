module IntSet = Set.Make (Int)
module Rng = Ftr_prng.Rng
module Sample = Ftr_prng.Sample

type replacement = Proportional | Oldest

type arrival = Random_order | Sequential

(* Nearest member of [present] to point [w]: the owner of w's basin of
   attraction. Ties go to the left. *)
let nearest_present present w =
  let above = IntSet.find_first_opt (fun (x : int) -> x >= w) present in
  let below = IntSet.find_last_opt (fun (x : int) -> x <= w) present in
  match (below, above) with
  | None, None -> None
  | Some b, None -> Some b
  | None, Some a -> Some a
  | Some b, Some a -> if w - b <= a - w then Some b else Some a

(* Section 5's redirect rule, the one copy: [build] below and the served
   protocol ([Ftr_p2p.Actor]) each apply its verdict their own way.

   An accepted Proportional draw always finds a victim: the scan's
   accumulator repeats [sum_old]'s additions in the same order (a hole
   adds an exact 0.0), so it ends bitwise at [sum_old]; [Rng.float] is at
   most 1 - 2^-53, so the rounded [r *. sum_old] is strictly below
   [sum_old], and the last live slot at the latest passes [acc > target]. *)
let redirect_victim replacement rng ?births ~pos ~newcomer slots count =
  let weight i = if slots.(i) < 0 then 0.0 else 1.0 /. float_of_int (abs (pos - slots.(i))) in
  let rec sum i acc = if i = count then acc else sum (i + 1) (acc +. weight i) in
  let sum_old = if newcomer = pos then 0.0 else sum 0 0.0 in
  if sum_old <= 0.0 then -1
  else
    let p_new = 1.0 /. float_of_int (abs (pos - newcomer)) in
    if Rng.float rng >= p_new /. (sum_old +. p_new) then -1
    else
      match (replacement, births) with
      | Oldest, None -> invalid_arg "Heuristic.redirect_victim: Oldest needs births"
      | Oldest, Some births ->
          let rec oldest i best =
            if i = count then best
            else if slots.(i) >= 0 && (best < 0 || births.(i) < births.(best)) then oldest (i + 1) i
            else oldest (i + 1) best
          in
          oldest 0 (-1)
      | Proportional, _ ->
          let target = Rng.float rng *. sum_old in
          let rec scan i acc =
            assert (i < count);
            let acc = acc +. weight i in
            if acc > target then i else scan (i + 1) acc
          in
          scan 0 0.0

let build ?(exponent = 1.0) ?(replacement = Proportional) ?(arrival = Random_order) ~n ~links rng
    =
  if n < 2 then invalid_arg "Heuristic.build: need at least two nodes";
  if links < 1 then invalid_arg "Heuristic.build: need at least one long link";
  Ftr_obs.Span.time "heuristic.build" @@ fun () ->
  let pl = Sample.power_law ~exponent ~max_length:(n - 1) in
  let long = Array.make_matrix n links (-1) in
  let birth = Array.make_matrix n links 0 in
  let tick = ref 0 in
  let next_tick () =
    incr tick;
    !tick
  in
  let present = ref IntSet.empty in
  (* Owner of the basin containing the 1/d-sampled sink for a node at
     position [src]. None while [src] is the only point that would exist. *)
  let sample_basin_owner ~src =
    if Ftr_obs.Flag.enabled () then Ftr_obs.Metrics.incr "heuristic_basin_lookups_total";
    if IntSet.is_empty !present then None
    else
      let w = Network.sample_long_target pl rng ~n ~src in
      nearest_present !present w
  in
  (* Node [u] is asked to redirect one of its existing long links to the
     newly arrived [v]: the victim slot is overwritten in place and
     re-stamped with the current tick. *)
  let consider_redirect ~u ~v =
    let victim =
      redirect_victim replacement rng ~births:birth.(u) ~pos:u ~newcomer:v long.(u) links
    in
    if victim >= 0 then begin
      if Ftr_obs.Flag.enabled () then begin
        Ftr_obs.Metrics.incr
          ~labels:
            [
              ( "replacement",
                match replacement with Proportional -> "proportional" | Oldest -> "oldest" );
            ]
          "heuristic_redirects_total";
        (* Construction-phase forensics for the flight-recorder stream:
           which link the Section 5 redirect rule rewired, and what it
           evicted. *)
        Ftr_obs.Events.emit ~kind:"heuristic.redirect"
          [
            ("node", Ftr_obs.Json.Int u);
            ("newcomer", Ftr_obs.Json.Int v);
            ("evicted", Ftr_obs.Json.Int long.(u).(victim));
            ("slot", Ftr_obs.Json.Int victim);
          ]
      end;
      long.(u).(victim) <- v;
      birth.(u).(victim) <- next_tick ()
    end
  in
  let order =
    match arrival with
    | Random_order -> Rng.permutation rng n
    | Sequential -> Array.init n (fun i -> i)
  in
  Array.iter
    (fun v ->
      (* Outgoing links: ℓ sinks sampled by the 1/d law, each claimed by
         its basin owner. *)
      for s = 0 to links - 1 do
        match sample_basin_owner ~src:v with
        | Some u ->
            long.(v).(s) <- u;
            birth.(v).(s) <- next_tick ()
        | None -> ()
      done;
      (* Incoming links: v estimates how many links "should" end at it with
         a Poisson(ℓ) draw and solicits redirects from the basin owners of
         1/d-sampled points. *)
      let solicit = Sample.poisson rng ~lambda:(float_of_int links) in
      for _ = 1 to solicit do
        match sample_basin_owner ~src:v with
        | Some u -> consider_redirect ~u ~v
        | None -> ()
      done;
      present := IntSet.add v !present)
    order;
  (* The very first arrival had no possible sinks; give its empty slots
     fresh draws now that the space is fully populated. *)
  for v = 0 to n - 1 do
    for s = 0 to links - 1 do
      if long.(v).(s) < 0 then begin
        let rec fresh tries =
          let w = Network.sample_long_target pl rng ~n ~src:v in
          match nearest_present (IntSet.remove v !present) w with
          | Some u -> u
          | None -> if tries > 100 then (v + 1) mod n else fresh (tries + 1)
        in
        long.(v).(s) <- fresh 0;
        birth.(v).(s) <- next_tick ()
      end
    done
  done;
  let neighbors =
    Array.init n (fun v ->
        let immediate = (if v > 0 then [ v - 1 ] else []) @ if v < n - 1 then [ v + 1 ] else [] in
        let arr = Array.of_list (List.rev_append immediate (Array.to_list long.(v))) in
        Array.sort Int.compare arr;
        arr)
  in
  Network.of_neighbor_indices ~line_size:n ~positions:(Array.init n (fun i -> i)) ~neighbors
    ~links ()

let length_distribution net =
  let n = Network.line_size net in
  let counts = Array.make n 0 in
  let total = ref 0 in
  List.iter
    (fun d ->
      if d >= 1 && d < n then begin
        counts.(d) <- counts.(d) + 1;
        incr total
      end)
    (Network.long_link_lengths net);
  if !total = 0 then Array.make n 0.0
  else Array.map (fun c -> float_of_int c /. float_of_int !total) counts

let ideal_distribution ?(exponent = 1.0) ~n () =
  if n < 2 then invalid_arg "Heuristic.ideal_distribution: need n >= 2";
  let pmf = Array.make n 0.0 in
  let total = ref 0.0 in
  for d = 1 to n - 1 do
    let w = 1.0 /. Float.pow (float_of_int d) exponent in
    pmf.(d) <- w;
    total := !total +. w
  done;
  for d = 1 to n - 1 do
    pmf.(d) <- pmf.(d) /. !total
  done;
  pmf

(* Repair after a failure wave (Section 5: "the same heuristic can be used
   for regeneration of links when a node crashes"): the survivors compact
   into a smaller network; links between survivors are kept, and every
   link that pointed at a dead node is regenerated with a fresh 1/d draw
   conditioned on landing on a survivor — which is exactly the Theorem 17
   distribution, so "failures leave behind yet another random graph". *)
let repair ?(exponent = 1.0) ~alive net rng =
  let n = Network.size net in
  let live = ref [] in
  for i = n - 1 downto 0 do
    if alive i then live := i :: !live
  done;
  let live = Array.of_list !live in
  let m = Array.length live in
  if m < 2 then invalid_arg "Heuristic.repair: fewer than two survivors";
  Ftr_obs.Span.time "heuristic.repair" @@ fun () ->
  (* Old index -> new compacted index. *)
  let index_of = Array.make n (-1) in
  Array.iteri (fun new_i old_i -> index_of.(old_i) <- new_i) live;
  let line_size = Network.line_size net in
  let pl = Sample.power_law ~exponent ~max_length:(line_size - 1) in
  (* Line position -> new compacted index, -1 where no survivor sits. *)
  let position_index = Array.make line_size (-1) in
  Array.iteri (fun new_i old_i -> position_index.(Network.position net old_i) <- new_i) live;
  let sample_live_index ~src_pos ~self =
    let rec attempt tries =
      let j = position_index.(Network.sample_long_target pl rng ~n:line_size ~src:src_pos) in
      if j >= 0 && j <> self then j
      else if tries > 10_000 then (self + 1) mod m
      else attempt (tries + 1)
    in
    attempt 0
  in
  let neighbors =
    Array.mapi
      (fun new_i old_i ->
        let pos = Network.position net old_i in
        (* Ring links to the nearest survivors. *)
        let immediate =
          (if new_i > 0 then [ new_i - 1 ] else [])
          @ if new_i < m - 1 then [ new_i + 1 ] else []
        in
        let long = ref [] in
        (* Skip the old ring links — the first occurrence of each adjacent
           index; later duplicates are genuine long links. The new ring
           above replaces them. *)
        let seen_left = ref false and seen_right = ref false in
        Network.iter_neighbors net old_i (fun v ->
            let is_ring =
              (v = old_i - 1 && (not !seen_left)
              &&
              (seen_left := true;
               true))
              || v = old_i + 1
                 && (not !seen_right)
                 &&
                 (seen_right := true;
                  true)
            in
            if not is_ring then
              if alive v then long := index_of.(v) :: !long
              else long := sample_live_index ~src_pos:pos ~self:new_i :: !long);
        let arr = Array.of_list (List.rev_append immediate !long) in
        Array.sort Int.compare arr;
        arr)
      live
  in
  Network.of_neighbor_indices
    ~geometry:(Network.geometry net)
    ~line_size
    ~positions:(Array.map (Network.position net) live)
    ~neighbors ~links:(Network.links net) ()
