(* T3 fixtures: polymorphic [=] instantiated at a float-carrying record
   and at a float pair (positives — structural float comparison) versus
   an int-instantiated [=] (negative — immediate, safe). The last four
   are polymorphic comparisons on int, string and generic operands: none
   carries a float, closure or abstract type, so T3 stays silent. *)

type pt = { x : float; y : float }

let close (a : pt) (b : pt) = a = b

let at_origin (a : float * float) = a = (0., 0.)

let same_int (a : int) (b : int) = a = b

let is_pair a = a = (1, 2)

let not_x a = a <> "x"

let is_some3 a = a = Some 3

let sort_any a = Array.sort compare a
