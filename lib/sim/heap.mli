(** Array-backed binary min-heap, the event queue's core. *)

type 'a t

val create : compare:('a -> 'a -> int) -> 'a t
(** Empty heap ordered by [compare] (smallest first). *)

val push : 'a t -> 'a -> unit
(** Insert; O(log n). *)

val pop : 'a t -> 'a option
(** Remove and return the smallest element; O(log n). *)

val peek : 'a t -> 'a option
(** Smallest element without removing it. *)

val length : 'a t -> int
(** Number of elements. *)

(* ftr-lint: disable T6 -- ROADMAP item 15: leaves with lib/sim *)
val is_empty : 'a t -> bool
(** Whether the heap holds no elements. *)

val clear : 'a t -> unit
(** Drop all elements. *)

(* ftr-lint: disable T6 -- ROADMAP item 15: leaves with lib/sim *)
val to_sorted_list : 'a t -> 'a list
(** Non-destructive sorted drain (for tests and debugging). *)

(** {1 Introspection for the invariant sanitizer} *)

val slot : 'a t -> int -> 'a
(** The element stored at array slot [i] of the implicit binary tree,
    [0 <= i < length]. Slot 0 is the minimum; the children of slot [i]
    are [2i+1] and [2i+2]. @raise Invalid_argument out of range. *)

val compare_items : 'a t -> 'a -> 'a -> int
(** The heap's own ordering, so external validators can re-check the
    heap property without knowing the element type's comparison. *)
