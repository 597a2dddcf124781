(** Directed graphs as flat int32 CSR rows — the shape of the paper's
    overlay, where each node stores only the addresses of its
    neighbours. *)

(** Flat int32 vectors ([Bigarray], C layout) — the storage type behind
    every CSR structure. Half the footprint of [int array] (4 bytes per
    entry instead of a tagged word), unscanned by the GC, and the exact
    type [Unix.map_file] yields, so snapshots mmap straight into the
    working representation. [get]/[unsafe_get] return untagged [int]s and
    compile allocation-free (the [Int32.to_int] composition cancels the
    box even without flambda — pinned by the Gc budgets in test_csr.ml). *)
module I32 : sig
  type t = (int32, Bigarray.int32_elt, Bigarray.c_layout) Bigarray.Array1.t

  val max_value : int
  (** Largest storable value (conservatively [0x3FFF_FFFF], which also
      fits a 32-bit OCaml int). *)

  val create : int -> t
  (** Fresh uninitialised vector of the given length. *)

  val length : t -> int

  val get : t -> int -> int
  (** Bounds-checked read. *)

  val unsafe_get : t -> int -> int
  (** Unchecked read — hot loops over validated structures only. *)

  val unsafe_set : t -> int -> int -> unit
  (** Unchecked write for producers that have already range-checked. *)

  val of_int_array : int array -> t

  val sub : t -> int -> int -> t
  (** [sub a off len] is a shared view (no copy). *)

  val blit : t -> t -> unit
  val equal : t -> t -> bool
end

(** Compressed sparse row (struct-of-arrays) form: all rows concatenated
    into one flat [targets] vector indexed through [offsets]. Row [u] is
    [targets.(offsets.(u)) .. targets.(offsets.(u+1) - 1)]. Invariants
    (established by {!Csr.of_rows} and [Network]'s builders, re-checkable
    with {!Csr.validate}): [offsets] is monotone non-decreasing, starts
    at 0, ends at [I32.length targets]; every target is a valid node
    index. The record is exposed so hot loops can scan the vectors
    directly — treat both as read-only. *)
module Csr : sig
  type t = { offsets : I32.t; targets : I32.t }

  val of_rows : int array array -> t
  (** Flatten per-node rows into vectors of exactly the edge count.
      @raise Invalid_argument if a target is out of range or the node or
      edge count exceeds the int32-indexable range. *)

  val size : t -> int
  (** Number of nodes (rows). *)

  val degree : t -> int -> int
  (** Out-degree of a node. *)

  val edge_count : t -> int
  (** Total number of directed edges. *)

  val nth : t -> int -> int -> int
  (** [nth t u k] is the [k]-th out-neighbour of [u]. *)

  val iter_row : t -> int -> (int -> unit) -> unit
  (** Apply to every out-neighbour of a node, in row order. *)

  val validate : ?sorted:bool -> t -> unit
  (** Re-check the structural invariants ([sorted] additionally demands
      every row be non-decreasing). @raise Invalid_argument on violation. *)

  val reverse : t -> t
  (** Transpose: row [v] lists every [u] with an edge [u -> v], in
      ascending order (an edge present twice appears twice). *)

  val equal : t -> t -> bool
  (** Structural (byte) equality of both vectors. *)
end
