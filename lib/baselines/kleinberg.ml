(* Kleinberg's grid is the dims = 2 instance of the generalised
   construction in [Ftr_core.Multidim]; this module is a thin, name-stable
   facade over it. *)

module Multidim = Ftr_core.Multidim

type t = Multidim.t

let build ?(alpha = 2.0) ?(long_links = 1) ~side rng =
  if side < 3 then invalid_arg "Kleinberg.build: side must be >= 3";
  if long_links < 0 then invalid_arg "Kleinberg.build: negative long link count";
  Multidim.build ~alpha ~links:long_links ~dims:2 ~side rng

let route_hops t ~src ~dst =
  match Multidim.route t ~src ~dst with
  | Ftr_core.Route.Delivered { hops } -> hops
  | Ftr_core.Route.Failed _ -> invalid_arg "Kleinberg.route_hops: routing failed"
