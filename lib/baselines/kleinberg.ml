(* Kleinberg's grid is the dims = 2 instance of the generalised
   construction in [Ftr_core.Multidim]; this module is a thin, name-stable
   facade over it. *)

module Multidim = Ftr_core.Multidim

type t = Multidim.t

let build ?(alpha = 2.0) ?(long_links = 1) ~side rng =
  if side < 3 then invalid_arg "Kleinberg.build: side must be >= 3";
  if long_links < 0 then invalid_arg "Kleinberg.build: negative long link count";
  Multidim.build ~alpha ~links:long_links ~dims:2 ~side rng

let torus = Multidim.torus

let size = Multidim.size

let degree = Multidim.degree

let route ?max_hops t ~src ~dst =
  if not (Ftr_metric.Torus.contains (Multidim.torus t) src
          && Ftr_metric.Torus.contains (Multidim.torus t) dst)
  then invalid_arg "Kleinberg.route: node off the torus";
  match Multidim.route ?max_hops t ~src ~dst with
  | Ftr_core.Route.Delivered { hops } -> Some hops
  | Ftr_core.Route.Failed _ -> None

let route_hops t ~src ~dst =
  match route t ~src ~dst with
  | Some h -> h
  | None -> invalid_arg "Kleinberg.route_hops: routing failed"
