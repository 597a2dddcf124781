(* p2psim refuses malformed command-line input by name: each case below
   must exit 124 (cmdliner's usage error) with the offending option on
   stderr, never 125 (an uncaught exception) and never run. *)

let cases =
  [
    ([ "route"; "--strategy"; "foo" ], "--strategy");
    ([ "explain"; "--strategy"; "bogus" ], "--strategy");
    ([ "sweep"; "--strategy"; "x" ], "--strategy");
    ([ "route"; "--nodes"; "0" ], "--nodes");
    ([ "route"; "--nodes"; "1" ], "--nodes");
    ([ "route"; "--fail"; "1.5" ], "--fail");
    ([ "explain"; "--fail"; "1.0" ], "--fail");
    ([ "dht"; "--fail"; "2" ], "--fail");
    (* sweep's list axes are checked element by element. *)
    ([ "sweep"; "--fail"; "0.0,1.5" ], "--fail");
    ([ "sweep"; "--nodes"; "256,1" ], "--nodes");
    (* The artefacts: counts must be positive, and table1's N/64 must
       still span the Theorem 10 chain. *)
    ([ "table1"; "--nodes"; "100" ], "--nodes");
    ([ "figure5"; "--networks"; "0" ], "--networks");
    ([ "figure6"; "--networks"; "0" ], "--networks");
    ([ "figure7"; "--messages"; "0" ], "--messages");
    ([ "byzantine"; "--networks"; "0" ], "--networks");
    ([ "paper"; "nosuch" ], "nosuch");
  ]

let contains s sub = Option.is_some (Ftr_lint.Suppress.find_sub s sub)

let refused_by_name () =
  (* Under `dune runtest` the exe is a declared dep next to the test
     directory; under `dune exec` from the source tree it is in _build. *)
  let exe =
    List.find Sys.file_exists [ "../bin/p2psim.exe"; "_build/default/bin/p2psim.exe" ]
  in
  let err = Filename.temp_file "p2psim_cli" ".err" in
  Fun.protect ~finally:(fun () -> Sys.remove err) @@ fun () ->
  List.iter
    (fun (args, option) ->
      let line = String.concat " " args in
      let code =
        Sys.command
          (Printf.sprintf "%s %s > /dev/null 2> %s" exe
             (String.concat " " (List.map Filename.quote args))
             (Filename.quote err))
      in
      let text = In_channel.with_open_bin err In_channel.input_all in
      Alcotest.(check int) (line ^ ": exit status") 124 code;
      Alcotest.(check bool) (line ^ ": names " ^ option) true (contains text ("'" ^ option ^ "'")))
    cases

let () =
  Alcotest.run "cli"
    [ ("p2psim", [ Alcotest.test_case "malformed input refused by name" `Quick refused_by_name ]) ]
