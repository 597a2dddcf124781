module Overlay = Ftr_p2p.Overlay

(* The store over the live protocol: ownership is whatever node the
   overlay's routed lookup resolves for the key's point *right now*, so it
   follows joins, leaves and crashes. Values live in per-position tables on
   this side of the simulation boundary (the "disk" of each simulated
   node); a crash therefore loses the local copies, and replication via
   salted points is what brings the data back. *)

type t = {
  overlay : Overlay.t;
  line_size : int;
  replicas : int;
  data : (int, (string, string) Hashtbl.t) Hashtbl.t; (* live position -> table *)
}

let create ?(replicas = 1) ~line_size overlay =
  if replicas < 1 then invalid_arg "Dynamic.create: need at least one replica";
  { overlay; line_size; replicas; data = Hashtbl.create 256 }

let table_of t pos =
  match Hashtbl.find_opt t.data pos with
  | Some table -> table
  | None ->
      let table = Hashtbl.create 8 in
      Hashtbl.replace t.data pos table;
      table

(* Drop tables of nodes that are no longer alive (their contents die with
   them, as a crashed disk would). Called lazily from reads. *)
let reap t =
  let dead =
    Hashtbl.fold (fun pos _ acc -> if Overlay.is_alive t.overlay pos then acc else pos :: acc)
      t.data []
  in
  List.iter (Hashtbl.remove t.data) dead

let put t ~from ~key ~value =
  for salt = 0 to t.replicas - 1 do
    let point = Keyspace.replica_point ~line_size:t.line_size ~salt key in
    Overlay.lookup t.overlay ~from ~target:point
      ~callback:(fun ~owner ~hops:_ ->
        if Overlay.is_alive t.overlay owner then
          Hashtbl.replace (table_of t owner) key value)
      ()
  done

let get t ~from ~key ~callback =
  reap t;
  (* Try replica points in salt order; the first owner holding the key
     answers. *)
  let rec attempt salt =
    if salt = t.replicas then callback None
    else begin
      let point = Keyspace.replica_point ~line_size:t.line_size ~salt key in
      Overlay.lookup t.overlay ~from ~target:point
        ~callback:(fun ~owner ~hops:_ ->
          match Hashtbl.find_opt t.data owner with
          | Some table when Hashtbl.mem table key ->
              callback (Hashtbl.find_opt table key)
          | Some _ | None -> attempt (salt + 1))
        ()
    end
  in
  attempt 0

(* Anti-entropy: every stored pair is re-put from its current holder, so
   ownership drift accumulated through churn is repaired and the replica
   count restored. *)
let rebalance t =
  reap t;
  let pairs =
    Hashtbl.fold
      (fun pos table acc -> Hashtbl.fold (fun k v acc -> (pos, k, v) :: acc) table acc)
      t.data []
  in
  List.iter
    (fun (pos, key, value) -> if Overlay.is_alive t.overlay pos then put t ~from:pos ~key ~value)
    pairs;
  List.length pairs

let stored_pairs t =
  reap t;
  Hashtbl.fold (fun _ table acc -> acc + Hashtbl.length table) t.data 0
