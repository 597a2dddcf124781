module Network = Ftr_core.Network
module Route = Ftr_core.Route
module Failure = Ftr_core.Failure

type t = {
  net : Network.t;
  replicas : int;
  tables : (string, string) Hashtbl.t array; (* one table per node index *)
}

let create ?(replicas = 1) net =
  if replicas < 1 then invalid_arg "Store.create: need at least one replica";
  {
    net;
    replicas;
    tables = Array.init (Network.size net) (fun _ -> Hashtbl.create 8);
  }

let network t = t.net

(* The node responsible for a key's [salt]-th replica: the present node
   nearest to the hashed point (its basin owner). *)
let replica_owner t ~salt key =
  let point = Keyspace.replica_point ~line_size:(Network.line_size t.net) ~salt key in
  Network.nearest_index t.net ~position:point

let owner t key = replica_owner t ~salt:0 key

let replica_owners t key =
  (* Distinct owners in salt order; collisions between salted points simply
     reduce the effective replica count for that key. *)
  let rec collect salt acc =
    if salt = t.replicas then List.rev acc
    else
      let o = replica_owner t ~salt key in
      collect (salt + 1) (if List.mem o acc then acc else o :: acc)
  in
  collect 0 []

let put t ~key ~value =
  if Ftr_obs.Flag.enabled () then Ftr_obs.Metrics.incr "store_put_total";
  List.iter (fun o -> Hashtbl.replace t.tables.(o) key value) (replica_owners t key);
  (* Sanitizer hook: a put must land the key with its basin owner. *)
  if Ftr_debug.Debug.enabled () then begin
    let o = owner t key in
    if o < 0 || o >= Network.size t.net then
      Ftr_debug.Debug.failf "Store: owner %d of key %S is not a node" o key;
    let landed =
      match Hashtbl.find_opt t.tables.(o) key with
      | Some stored -> String.equal stored value
      | None -> false
    in
    if not landed then
      Ftr_debug.Debug.failf "Store: key %S missing at its primary owner %d after put" key o
  end

let get t ~key =
  let rec scan = function
    | [] -> None
    | o :: rest -> (
        match Hashtbl.find_opt t.tables.(o) key with
        | Some v -> Some v
        | None -> scan rest)
  in
  let result = scan (replica_owners t key) in
  if Ftr_obs.Flag.enabled () then
    Ftr_obs.Metrics.incr
      ~labels:[ ("result", match result with Some _ -> "hit" | None -> "miss") ]
      "store_get_total";
  result

let iter_stored t f =
  Array.iteri (fun node table -> Hashtbl.iter (fun key value -> f ~node ~key ~value) table)
    t.tables

(* ------------------------------------------------------------------ *)
(* Routed operations                                                   *)
(* ------------------------------------------------------------------ *)

type routed = {
  value : string option;  (** the value, for gets that found one *)
  hops : int;  (** total message hops spent, over all attempted replicas *)
  reached : int list;  (** replica owners actually reached *)
}

let route_to t ~failures ~strategy ~rng ~src ~dst ~hops =
  match Route.route ~failures ~strategy ?rng t.net ~src ~dst with
  | Route.Delivered { hops = h } -> (true, hops + h)
  | Route.Failed { hops = h; _ } -> (false, hops + h)

let routed_get ?(failures = Failure.none) ?(strategy = Route.Terminate) ?rng t ~src ~key =
  if not (Failure.node_alive failures src) then invalid_arg "Store.routed_get: source is dead";
  let hops = ref 0 in
  let rec scan reached = function
    | [] -> { value = None; hops = !hops; reached = List.rev reached }
    | o :: rest ->
        if Failure.node_alive failures o then begin
          let ok, h = route_to t ~failures ~strategy ~rng ~src ~dst:o ~hops:!hops in
          hops := h;
          if ok then begin
            match Hashtbl.find_opt t.tables.(o) key with
            | Some v -> { value = Some v; hops = !hops; reached = List.rev (o :: reached) }
            | None -> scan (o :: reached) rest
          end
          else scan reached rest
        end
        else scan reached rest
  in
  let r = scan [] (replica_owners t key) in
  if Ftr_obs.Flag.enabled () then
    Ftr_obs.Metrics.incr
      ~labels:[ ("result", match r.value with Some _ -> "hit" | None -> "miss") ]
      "store_get_total";
  r
