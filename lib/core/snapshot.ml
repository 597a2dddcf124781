module I32 = Ftr_graph.Adjacency.I32
module Csr = Ftr_graph.Adjacency.Csr

exception Corrupt of string

let corrupt fmt = Printf.ksprintf (fun s -> raise (Corrupt s)) fmt

let format_version = 2

let magic = "FTRSNAP1"

(* Written in native order; a foreign-endian writer produces the byteswap
   of this value, which [check_header] names explicitly. *)
let endian_tag = 0x0A0B0C0Dl

let endian_tag_swapped = 0x0D0C0B0Al

let header_bytes = 64

(* Header field offsets (see snapshot.mli for the format table). *)
let off_magic = 0
let off_endian = 8
let off_version = 12
let off_geometry = 16
let off_line_size = 20
let off_nodes = 28
let off_edges = 36
let off_links = 44

type info = {
  version : int;
  geometry : Network.geometry;
  line_size : int;
  nodes : int;
  edges : int;
  links : int;
  file_bytes : int;
}

(* Words of the positions section: present only on sparse networks (a full
   network's positions are the identity and are not stored). The offsets
   and targets sections follow it. *)
let position_words ~line_size ~nodes = if nodes < line_size then nodes else 0

let payload_words ~line_size ~nodes ~edges =
  position_words ~line_size ~nodes + (nodes + 1) + edges

let expected_bytes ~line_size ~nodes ~edges =
  header_bytes + (4 * payload_words ~line_size ~nodes ~edges)

let encode_header net =
  let b = Bytes.make header_bytes '\000' in
  Bytes.blit_string magic 0 b off_magic (String.length magic);
  Bytes.set_int32_ne b off_endian endian_tag;
  Bytes.set_int32_ne b off_version (Int32.of_int format_version);
  Bytes.set_int32_ne b off_geometry
    (match Network.geometry net with Network.Line -> 0l | Network.Circle -> 1l);
  Bytes.set_int64_ne b off_line_size (Int64.of_int (Network.line_size net));
  Bytes.set_int64_ne b off_nodes (Int64.of_int (Network.size net));
  Bytes.set_int64_ne b off_edges (Int64.of_int (Csr.edge_count (Network.csr net)));
  Bytes.set_int32_ne b off_links (Int32.of_int (Network.links net));
  b

(* Decode and cross-check everything the header claims; every exit is a
   [Corrupt] with a message naming the defect. [file_bytes] lets the size
   the header implies be checked against the actual file before any
   payload access — a truncated file is refused here, never mapped. *)
let decode_header ~file_bytes b =
  if Bytes.sub_string b off_magic (String.length magic) <> magic then
    corrupt "bad magic (not a network snapshot): %S"
      (Bytes.sub_string b off_magic (String.length magic));
  let tag = Bytes.get_int32_ne b off_endian in
  if Int32.equal tag endian_tag_swapped then
    corrupt "byte order mismatch: snapshot written on an opposite-endian host";
  if not (Int32.equal tag endian_tag) then
    corrupt "corrupt endianness tag 0x%08lx" tag;
  let version = Int32.to_int (Bytes.get_int32_ne b off_version) in
  if version <> format_version then
    corrupt "unsupported snapshot version %d (this build reads version %d)" version
      format_version;
  let geometry =
    match Bytes.get_int32_ne b off_geometry with
    | 0l -> Network.Line
    | 1l -> Network.Circle
    | g -> corrupt "invalid geometry tag %ld" g
  in
  let int64_field name off =
    let v = Bytes.get_int64_ne b off in
    if Int64.compare v 0L < 0 || Int64.compare v (Int64.of_int I32.max_value) > 0 then
      corrupt "%s %Ld outside the int32-indexable range" name v;
    Int64.to_int v
  in
  let line_size = int64_field "line_size" off_line_size in
  let nodes = int64_field "node count" off_nodes in
  let edges = int64_field "edge count" off_edges in
  let links = Int32.to_int (Bytes.get_int32_ne b off_links) in
  if links < 0 then corrupt "negative link count %d" links;
  if nodes > line_size then corrupt "%d nodes on a %d-point grid" nodes line_size;
  let expected = expected_bytes ~line_size ~nodes ~edges in
  if file_bytes <> expected then
    corrupt "file is %d bytes, header implies %d (%s)" file_bytes expected
      (if file_bytes < expected then "truncated" else "trailing garbage");
  { version; geometry; line_size; nodes; edges; links; file_bytes }

let write_fully fd b len =
  let sent = ref 0 in
  while !sent < len do
    sent := !sent + Unix.write fd b !sent (len - !sent)
  done

let read_header fd ~file_bytes =
  if file_bytes < header_bytes then
    corrupt "file is %d bytes, smaller than the %d-byte header" file_bytes header_bytes;
  let b = Bytes.create header_bytes in
  let got = ref 0 in
  (try
     let continue = ref true in
     while !continue && !got < header_bytes do
       let r = Unix.read fd b !got (header_bytes - !got) in
       if r = 0 then continue := false else got := !got + r
     done
   with Unix.Unix_error (e, _, _) -> corrupt "header read failed: %s" (Unix.error_message e));
  if !got < header_bytes then corrupt "short read of header (%d of %d bytes)" !got header_bytes;
  b

let with_fd path ~flags ~perm f =
  let fd = Unix.openfile path flags perm in
  Fun.protect ~finally:(fun () -> Unix.close fd) (fun () -> f fd)

external set64u : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

external set32u : Bytes.t -> int -> int32 -> unit = "%caml_bytes_set32u"

(* The save buffer: a multiple of 8 bytes, large enough that the write
   calls cost little next to the copy. *)
let save_buffer_bytes = 1 lsl 20

(* Two adjacent int32 entries as the int64 whose native-order bytes are
   theirs: entry [a] first in memory. *)
let[@inline] pack (a : int32) (b : int32) =
  let lo = if Sys.big_endian then b else a and hi = if Sys.big_endian then a else b in
  Int64.logor
    (Int64.logand (Int64.of_int32 lo) 0xFFFF_FFFFL)
    (Int64.shift_left (Int64.of_int32 hi) 32)

(* Append vector [v] to the file through [buf], whose first [!fill]
   bytes are pending: two entries per unchecked 64-bit store, flushing
   with [Unix.write] whenever the buffer is full. *)
let write_vector fd buf fill (v : I32.t) =
  let cap = Bytes.length buf and len = I32.length v in
  let i = ref 0 in
  while !i < len do
    if !fill > cap - 8 then begin
      write_fully fd buf !fill;
      fill := 0
    end;
    let pairs = min ((len - !i) / 2) ((cap - !fill) / 8) in
    if pairs = 0 then begin
      (* The vector's odd last entry. *)
      set32u buf !fill (Bigarray.Array1.unsafe_get v !i);
      fill := !fill + 4;
      incr i
    end
    else begin
      let f = !fill and s = !i in
      for j = 0 to pairs - 1 do
        set64u buf (f + (8 * j))
          (pack
             (Bigarray.Array1.unsafe_get v (s + (2 * j)))
             (Bigarray.Array1.unsafe_get v (s + (2 * j) + 1)))
      done;
      fill := f + (8 * pairs);
      i := s + (2 * pairs)
    end
  done

(* The header, then the payload sections copied through one bounded
   buffer with [Unix.write]. Writing through a shared mapping of the file
   instead would leave every payload page dirty in this process's memory
   until the GC finalizes the mapping, so a save followed by a load would
   hold the payload twice.

   An existing file is unlinked, not truncated. A network loaded from it
   keeps the old contents in its mapping (truncating would cut the pages
   from under it), and the new file is a fresh inode: on ext4 a file
   truncated to zero has its delayed allocations flushed at close
   (replace-via-truncate), which took 20 ms at n = 2^20. *)
let save net ~path =
  Ftr_obs.Span.time "snapshot.save" @@ fun () ->
  let adj = Network.csr net in
  (try Unix.unlink path with Unix.Unix_error (Unix.ENOENT, _, _) -> ());
  with_fd path ~flags:[ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] ~perm:0o644 @@ fun fd ->
  let header = encode_header net in
  write_fully fd header header_bytes;
  let buf = Bytes.create save_buffer_bytes and fill = ref 0 in
  Option.iter (write_vector fd buf fill) (Network.positions net);
  write_vector fd buf fill adj.Csr.offsets;
  write_vector fd buf fill adj.Csr.targets;
  write_fully fd buf !fill

let info ~path =
  with_fd path ~flags:[ Unix.O_RDONLY ] ~perm:0 @@ fun fd ->
  let file_bytes = (Unix.fstat fd).Unix.st_size in
  decode_header ~file_bytes (read_header fd ~file_bytes)

let load ?(mmap = true) ?(validate = true) ~path () =
  Ftr_obs.Span.time "snapshot.load" @@ fun () ->
  with_fd path ~flags:[ Unix.O_RDONLY ] ~perm:0 @@ fun fd ->
  let file_bytes = (Unix.fstat fd).Unix.st_size in
  let h = decode_header ~file_bytes (read_header fd ~file_bytes) in
  let nodes = h.nodes and edges = h.edges in
  (* A private copy-on-write mapping: read-only use serves straight from
     the page cache, and nothing this process does can write back to the
     file. *)
  let payload =
    Bigarray.array1_of_genarray
      (Unix.map_file fd ~pos:(Int64.of_int header_bytes) Bigarray.int32 Bigarray.c_layout false
         [| payload_words ~line_size:h.line_size ~nodes ~edges |])
  in
  let view off len = I32.sub payload off len in
  let copy off len =
    let a = I32.create len in
    if len > 0 then I32.blit (view off len) a;
    a
  in
  let slice = if mmap then view else copy in
  let skip = position_words ~line_size:h.line_size ~nodes in
  let positions = if nodes < h.line_size then Some (slice 0 nodes) else None in
  let offsets = slice skip (nodes + 1) in
  let targets = slice (skip + nodes + 1) edges in
  (* Cheap frame checks always run, even with [validate:false]: the two
     ends of the offsets vector anchor every row bound the router trusts. *)
  if I32.get offsets 0 <> 0 then corrupt "offsets do not start at 0";
  if I32.get offsets nodes <> edges then
    corrupt "offsets end at %d, header claims %d edges" (I32.get offsets nodes) edges;
  try
    Network.of_flat ~validate ~geometry:h.geometry ~line_size:h.line_size ?positions
      ~adj:{ Csr.offsets; targets } ~links:h.links ()
  with Invalid_argument msg -> corrupt "invalid payload: %s" msg
