(* ftr-lint: disable-file T3 test assertions compare small concrete values *)
(* Snapshot persistence: round-trip fidelity and corrupted-file refusal.

   The format is a fixed 64-byte header plus native-int32 sections
   (positions on sparse networks only, offsets, targets); fidelity means
   the loaded network is byte-identical to the saved one ([Network.equal]:
   Bigarray equality on every vector), plus identical route outcomes as
   the behavioural witness. Refusal
   means every malformed file raises [Snapshot.Corrupt] with a message,
   never a crash, a silent truncation, or an unrelated exception. *)

module Network = Ftr_core.Network
module Route = Ftr_core.Route
module Snapshot = Ftr_core.Snapshot
module Csr = Ftr_graph.Adjacency.Csr
module Rng = Ftr_prng.Rng

let build ?(n = 384) ?(links = 4) ?(seed = 0xBEE) () =
  Network.build_ideal ~n ~links (Rng.of_int seed)

(* A sparse network: the only kind whose snapshot stores positions. *)
let sparse () = Network.build_binomial ~n:256 ~links:2 ~present_p:0.5 (Rng.of_int 12345)

(* Round-trip inputs: the ideal line plus the circle geometry, sparse
   positions and a duplicate-free structural builder. *)
let inputs () =
  [
    ("ideal", build ());
    ("ring", Network.build_ring ~n:64 ~links:3 (Rng.of_int 12345));
    ("binomial", sparse ());
    ("deterministic", Network.build_deterministic ~n:64 ~base:2);
  ]

let with_snapshot net f =
  let path = Filename.temp_file "ftr_test" ".ftrsnap" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      Snapshot.save net ~path;
      f path)

let check_routes_agree original loaded =
  let n = Network.size original in
  for i = 0 to 15 do
    let src = i * 53 mod n and dst = i * 17 mod n in
    Alcotest.(check bool)
      (Printf.sprintf "route %d->%d agrees" src dst)
      true
      (Route.route original ~src ~dst = Route.route loaded ~src ~dst)
  done

let roundtrip load () =
  List.iter
    (fun (label, net) ->
      with_snapshot net @@ fun path ->
      let loaded = load path in
      Alcotest.(check bool) (label ^ " byte-identical") true (Network.equal net loaded);
      check_routes_agree net loaded)
    (inputs ())

let roundtrip_mmap = roundtrip (fun path -> Snapshot.load ~path ())

let roundtrip_copy = roundtrip (fun path -> Snapshot.load ~mmap:false ~path ())

(* validate:false skips the full structural sweep but keeps the frame
   checks; a well-formed file must load identically either way. *)
let roundtrip_no_validate = roundtrip (fun path -> Snapshot.load ~validate:false ~path ())

let info_fields () =
  let net = build ~n:200 ~links:3 () in
  with_snapshot net @@ fun path ->
  let i = Snapshot.info ~path in
  Alcotest.(check int) "version" Snapshot.format_version i.Snapshot.version;
  Alcotest.(check int) "nodes" 200 i.Snapshot.nodes;
  Alcotest.(check int) "line_size" (Network.line_size net) i.Snapshot.line_size;
  Alcotest.(check int) "links" 3 i.Snapshot.links;
  Alcotest.(check int) "edges" (Csr.edge_count (Network.csr net)) i.Snapshot.edges;
  Alcotest.(check int)
    "file_bytes matches the file" (Unix.stat path).Unix.st_size i.Snapshot.file_bytes

(* A full network stores no positions, in memory or on disk: its file is
   the header plus offsets and targets, 4 bytes per word. A sparse network
   adds its n positions. *)
let file_sizes_and_positions () =
  List.iter
    (fun (label, net, stores_positions) ->
      let n = Network.size net and edges = Csr.edge_count (Network.csr net) in
      let position_words = if stores_positions then n else 0 in
      with_snapshot net @@ fun path ->
      let bytes = (Unix.stat path).Unix.st_size in
      Alcotest.(check int) (label ^ " file size") (64 + (4 * (position_words + n + 1 + edges))) bytes;
      Alcotest.(check int)
        (label ^ " expected_bytes")
        (Snapshot.expected_bytes ~line_size:(Network.line_size net) ~nodes:n ~edges)
        bytes;
      List.iter
        (fun (how, loaded) ->
          Alcotest.(check bool)
            (Printf.sprintf "%s %s positions stored" label how)
            stores_positions
            (Option.is_some (Network.positions loaded)))
        [
          ("mmap", Snapshot.load ~path ());
          ("copy", Snapshot.load ~mmap:false ~path ());
          ("unvalidated", Snapshot.load ~validate:false ~path ());
        ])
    [ ("full", build (), false); ("sparse", sparse (), true) ]

(* ------------------------------------------------------------------ *)
(* Corrupted-file matrix                                               *)
(* ------------------------------------------------------------------ *)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_file path contents =
  let oc = open_out_bin path in
  output_string oc contents;
  close_out oc

let set_int32 s off v =
  let b = Bytes.of_string s in
  Bytes.set_int32_ne b off v;
  Bytes.to_string b

let get_int32 s off = Int32.to_int (Bytes.get_int32_ne (Bytes.of_string s) off)

(* The file bytes, pinned as FNV-1a 64 digests recorded from the writer
   that blitted the payload into a shared mapping of the file. The full
   networks' offsets vectors have an odd length (n + 1), so the targets
   section starts half-way through a 64-bit store. The two large files
   are bigger than the 1 MiB save buffer. *)
let fnv_bytes s =
  let h = ref 0xCBF29CE484222325L in
  String.iter
    (fun c -> h := Int64.mul (Int64.logxor !h (Int64.of_int (Char.code c))) 0x100000001B3L)
    s;
  !h

let pinned_file_bytes () =
  List.iter
    (fun (label, net, size, digest) ->
      with_snapshot net @@ fun path ->
      let contents = read_file path in
      Alcotest.(check int) (label ^ " size") size (String.length contents);
      Alcotest.(check int64) (label ^ " digest") digest (fnv_bytes contents))
    [
      ("full n=384", build (), 10_812, 0xDB69B37A23A1864EL);
      ("full n=2^16", build ~n:(1 lsl 16) (), 1_835_068, 0xB9724251925C1BFFL);
      ("sparse n=256", sparse (), 2_868, 0xCF8483648659C84BL);
      ( "sparse n=2^17",
        Network.build_binomial ~n:(1 lsl 17) ~links:3 ~present_p:0.5 (Rng.of_int 12345),
        1_831_204,
        0x7D2842BA2A6AFF27L );
    ]

(* Saving over a snapshot replaces the file instead of truncating it: a
   network mapped from the old file keeps its contents, and the path
   then loads the new network. *)
let save_replaces_mapped_file () =
  let old_net = build () and new_net = sparse () in
  with_snapshot old_net @@ fun path ->
  let mapped = Snapshot.load ~path () in
  Snapshot.save new_net ~path;
  Alcotest.(check bool) "mapped network unchanged" true (Network.equal old_net mapped);
  check_routes_agree old_net mapped;
  Alcotest.(check bool) "path holds the new network" true
    (Network.equal new_net (Snapshot.load ~path ()))

(* Each row: a label, the pristine snapshot it mutates (the ideal network,
   or the sparse one, which stores positions from byte 64 on), and a
   mutation of its bytes. Both [load] and [info] must refuse the mutant with
   [Snapshot.Corrupt] — except payload-only damage, which only [load] can
   see. *)
let corruptions =
  [
    ("empty file", `Full, true, fun _ -> "");
    ("truncated header", `Full, true, fun s -> String.sub s 0 40);
    ("truncated payload", `Full, true, fun s -> String.sub s 0 (String.length s - 8));
    ("trailing garbage", `Full, true, fun s -> s ^ "junk");
    ("bad magic", `Full, true, fun s -> "X" ^ String.sub s 1 (String.length s - 1));
    ("wrong version", `Full, true, fun s -> set_int32 s 12 99l);
    ("foreign endianness", `Full, true, fun s -> set_int32 s 8 0x0D0C0B0Al);
    ( "out-of-range target",
      `Full,
      false,
      fun s -> set_int32 s (String.length s - 4) Int32.max_int );
    ( "non-increasing position",
      `Sparse,
      false,
      fun s -> set_int32 s 68 (Int32.of_int (get_int32 s 64)) );
  ]

let rejects_corrupt () =
  with_snapshot (build ()) @@ fun full_path ->
  with_snapshot (sparse ()) @@ fun sparse_path ->
  let full = read_file full_path and sparse = read_file sparse_path in
  let mutant = Filename.temp_file "ftr_test_bad" ".ftrsnap" in
  Fun.protect ~finally:(fun () -> try Sys.remove mutant with Sys_error _ -> ())
  @@ fun () ->
  List.iter
    (fun (label, source, info_too, mutate) ->
      write_file mutant (mutate (match source with `Full -> full | `Sparse -> sparse));
      let expect_corrupt what f =
        match f () with
        | _ -> Alcotest.failf "%s: %s accepted a corrupt file" label what
        | exception Snapshot.Corrupt _ -> ()
        | exception e ->
            Alcotest.failf "%s: %s raised %s, wanted Corrupt" label what
              (Printexc.to_string e)
      in
      expect_corrupt "load" (fun () -> Snapshot.load ~path:mutant ());
      if info_too then expect_corrupt "info" (fun () -> Snapshot.info ~path:mutant))
    corruptions

(* A version-1 file (positions stored unconditionally) is refused by the
   version check, with a message naming the version it found. *)
let rejects_version_1 () =
  with_snapshot (build ()) @@ fun path ->
  write_file path (set_int32 (read_file path) 12 1l);
  List.iter
    (fun (what, f) ->
      match f () with
      | () -> Alcotest.failf "%s accepted a version-1 snapshot" what
      | exception Snapshot.Corrupt msg ->
          Alcotest.(check bool)
            (Printf.sprintf "%s message %S names version 1" what msg)
            true
            (String.starts_with ~prefix:"unsupported snapshot version 1 " msg))
    [
      ("load", fun () -> ignore (Snapshot.load ~path ()));
      ("info", fun () -> ignore (Snapshot.info ~path));
    ]

let missing_file () =
  (* A nonexistent path is an I/O error, not a corruption — it must
     surface as Unix_error (ENOENT), untranslated. *)
  match Snapshot.load ~path:"/nonexistent/ftr.ftrsnap" () with
  | _ -> Alcotest.fail "load of a missing file succeeded"
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()
  | exception e -> Alcotest.failf "wanted ENOENT, got %s" (Printexc.to_string e)

(* ------------------------------------------------------------------ *)
(* Properties                                                          *)
(* ------------------------------------------------------------------ *)

let prop_roundtrip =
  QCheck.Test.make ~name:"save/load round-trips any ideal network" ~count:20
    QCheck.(triple (int_range 2 160) (int_range 0 6) small_int)
    (fun (n, links, seed) ->
      let net = Network.build_ideal ~n ~links (Rng.of_int seed) in
      with_snapshot net @@ fun path ->
      Network.equal net (Snapshot.load ~path ())
      && Network.equal net (Snapshot.load ~mmap:false ~path ()))

let () =
  Alcotest.run "snapshot"
    [
      ( "roundtrip",
        [
          Alcotest.test_case "mmap load" `Quick roundtrip_mmap;
          Alcotest.test_case "copy load" `Quick roundtrip_copy;
          Alcotest.test_case "load without validation" `Quick roundtrip_no_validate;
          Alcotest.test_case "info fields" `Quick info_fields;
          Alcotest.test_case "file size and stored positions" `Quick file_sizes_and_positions;
          Alcotest.test_case "file bytes pinned" `Quick pinned_file_bytes;
          Alcotest.test_case "save replaces a mapped file" `Quick save_replaces_mapped_file;
        ] );
      ( "corruption",
        [
          Alcotest.test_case "corrupted files are refused" `Quick rejects_corrupt;
          Alcotest.test_case "version 1 is refused" `Quick rejects_version_1;
          Alcotest.test_case "missing file is ENOENT" `Quick missing_file;
        ] );
      ("properties", [ QCheck_alcotest.to_alcotest prop_roundtrip ]);
    ]
