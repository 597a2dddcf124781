(* ftr-lint: disable-file T3 test assertions compare small concrete values *)
(* Snapshot persistence: round-trip fidelity and corrupted-file refusal.

   The format is a fixed 64-byte header plus three native-int32 sections
   (positions, offsets, targets); fidelity means the loaded network is
   byte-identical to the saved one — Bigarray equality on every vector,
   plus identical route outcomes as the behavioural witness. Refusal
   means every malformed file raises [Snapshot.Corrupt] with a message,
   never a crash, a silent truncation, or an unrelated exception. *)

module Network = Ftr_core.Network
module Route = Ftr_core.Route
module Snapshot = Ftr_core.Snapshot
module Csr = Ftr_graph.Adjacency.Csr
module I32 = Ftr_graph.Adjacency.I32
module Rng = Ftr_prng.Rng

let build ?(n = 384) ?(links = 4) ?(seed = 0xBEE) () =
  Network.build_ideal ~n ~links (Rng.of_int seed)

(* Round-trip inputs: the ideal line plus the circle geometry, sparse
   positions and a duplicate-free structural builder. *)
let inputs () =
  [
    ("ideal", build ());
    ("ring", Network.build_ring ~n:64 ~links:3 (Rng.of_int 12345));
    ("binomial", Network.build_binomial ~n:256 ~links:2 ~present_p:0.5 (Rng.of_int 12345));
    ("deterministic", Network.build_deterministic ~n:64 ~base:2);
  ]

let with_snapshot net f =
  let path = Filename.temp_file "ftr_test" ".ftrsnap" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      Snapshot.save net ~path;
      f path)

let same_network a b =
  Network.geometry a = Network.geometry b
  && Network.line_size a = Network.line_size b
  && Network.links a = Network.links b
  && I32.equal (Network.positions a) (Network.positions b)
  && Csr.equal (Network.csr a) (Network.csr b)

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
      Alcotest.(check bool) (label ^ " byte-identical") true (same_network net loaded);
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

(* Each row: a label and a mutation of a pristine snapshot's bytes. Both
   [load] and [info] must refuse the mutant with [Snapshot.Corrupt] —
   except payload-only damage, which only [load] can see. *)
let corruptions =
  [
    ("empty file", true, fun _ -> "");
    ("truncated header", true, fun s -> String.sub s 0 40);
    ("truncated payload", true, fun s -> String.sub s 0 (String.length s - 8));
    ("trailing garbage", true, fun s -> s ^ "junk");
    ("bad magic", true, fun s -> "X" ^ String.sub s 1 (String.length s - 1));
    ("wrong version", true, fun s -> set_int32 s 12 99l);
    ("foreign endianness", true, fun s -> set_int32 s 8 0x0D0C0B0Al);
    ( "out-of-range target",
      false,
      fun s -> set_int32 s (String.length s - 4) Int32.max_int );
  ]

let rejects_corrupt () =
  let net = build () in
  with_snapshot net @@ fun path ->
  let pristine = read_file path in
  let mutant = Filename.temp_file "ftr_test_bad" ".ftrsnap" in
  Fun.protect ~finally:(fun () -> try Sys.remove mutant with Sys_error _ -> ())
  @@ fun () ->
  List.iter
    (fun (label, info_too, mutate) ->
      write_file mutant (mutate pristine);
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
      same_network net (Snapshot.load ~path ())
      && same_network net (Snapshot.load ~mmap:false ~path ()))

let () =
  Alcotest.run "snapshot"
    [
      ( "roundtrip",
        [
          Alcotest.test_case "mmap load" `Quick roundtrip_mmap;
          Alcotest.test_case "copy load" `Quick roundtrip_copy;
          Alcotest.test_case "load without validation" `Quick roundtrip_no_validate;
          Alcotest.test_case "info fields" `Quick info_fields;
        ] );
      ( "corruption",
        [
          Alcotest.test_case "corrupted files are refused" `Quick rejects_corrupt;
          Alcotest.test_case "missing file is ENOENT" `Quick missing_file;
        ] );
      ("properties", [ QCheck_alcotest.to_alcotest prop_roundtrip ]);
    ]
