(** Versioned binary network snapshots, mmap-able straight into the
    working representation.

    A snapshot is a 64-byte header followed by the int32 payload vectors
    {!Network} stores — positions (sparse networks only), CSR offsets, CSR
    targets — in native byte order. Because the network holds exactly
    these vectors ({!Ftr_graph.Adjacency.I32} Bigarrays), {!load} with
    [mmap:true] (the default) maps the file read-only
    (private/copy-on-write) and serves routes out of the page cache
    without materializing anything: a multi-million-node network "loads"
    in the time of a few [Array1.sub] views. [mmap:false] copies the
    payload into fresh Bigarrays instead, detaching the network from the
    file.

    Format v2 (all integers little-endian on this host — the header's
    endian tag rejects foreign-endian files). [P] is the positions
    section's length: [n] on a sparse network ([n < line_size]) and 0 on a
    full one, whose positions are the identity and are not stored:

    {v
    offset    size   field
    0         8      magic "FTRSNAP1"
    8         4      endian tag 0x0A0B0C0D, written native
    12        4      format version (2)
    16        4      geometry (0 = line, 1 = circle)
    20        8      line_size
    28        8      n (node count)
    36        8      edge count E
    44        4      links (nominal long links per node)
    48        16     reserved (zero)
    64        4P     positions (only when n < line_size)
    64+4P     4(n+1) CSR offsets
    ...       4E     CSR targets
    v}

    A file is {!expected_bytes} long: [64 + 4(n+1+E)] for a full network,
    [64 + 4(2n+1+E)] for a sparse one. Version 1 (which stored the
    positions section unconditionally) is refused like any other
    unsupported version.

    Corrupt input — truncated files, bad magic, wrong version, foreign
    endianness, or payload that fails structural validation — raises
    {!Corrupt} with a message naming the defect; it never crashes or
    yields silent garbage. *)

exception Corrupt of string
(** A snapshot file that cannot be trusted: the message names the defect
    (truncation, bad magic, version/endianness mismatch, invalid
    structure). *)

val expected_bytes : line_size:int -> nodes:int -> edges:int -> int
(** Size of a valid snapshot file with the given header fields: the header
    plus the payload sections, the positions section counted only when
    [nodes < line_size]. *)

val save : Network.t -> path:string -> unit
(** Write the network to a new file at [path], replacing (unlinking) any
    file there, so a network loaded from the old file keeps its contents.
    The header is written first, then the payload vectors, copied through
    one 1 MiB buffer with [Unix.write], two entries per store. The file
    is never mapped while it is written, so saving leaves no dirty
    payload pages in the process. *)

val load : ?mmap:bool -> ?validate:bool -> path:string -> unit -> Network.t
(** Read a snapshot. [mmap] (default true) backs the network by a private
    read-only mapping of the file; [false] copies into fresh memory.
    [validate] (default true) runs the full structural check on the
    payload ({!Ftr_graph.Adjacency.Csr.validate} with sorted rows plus
    position monotonicity); header sanity and size checks run always.
    @raise Corrupt on any malformed input. *)

type info = {
  version : int;
  geometry : Network.geometry;
  line_size : int;
  nodes : int;
  edges : int;
  links : int;
  file_bytes : int;
}

val info : path:string -> info
(** Decode just the header (with the same integrity checks, including the
    declared-size-vs-file-size consistency check).
    @raise Corrupt on malformed input. *)
