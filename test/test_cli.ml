(* p2psim refuses malformed command-line input by name: each case below
   must exit 124 (cmdliner's usage error) with the offending option on
   stderr, never 125 (an uncaught exception) and never run. A malformed
   input file exits 1 with the defect named, as a bad snapshot does. *)

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
    (* serve: every numeric option has a domain. *)
    ([ "serve"; "--shards=0" ], "--shards");
    ([ "serve"; "--links=0" ], "--links");
    ([ "serve"; "--ticks=-5" ], "--ticks");
    ([ "serve"; "--rate=-1" ], "--rate");
    ([ "serve"; "--stabilize=-1" ], "--stabilize");
    ([ "serve"; "--ttl=0" ], "--ttl");
    ([ "serve"; "--join-rate=-1" ], "--join-rate");
    ([ "serve"; "--crash-rate=-1" ], "--crash-rate");
    ([ "serve"; "--leave-rate=nan" ], "--leave-rate");
    (* Options that used to reach a library [Invalid_argument] (exit 125)
       or run to a [nan] report. *)
    ([ "recovery"; "--kill=2.0" ], "--kill");
    ([ "dht"; "--replicas=0" ], "--replicas");
    ([ "dht"; "--requests=-5" ], "--requests");
    ([ "churn"; "--links=-3" ], "--links");
    ([ "churn"; "--initial=0" ], "--initial");
    ([ "churn"; "--duration=-1" ], "--duration");
    ([ "anatomy"; "--links=-1" ], "--links");
    ([ "adversary"; "--trials=-2" ], "--trials");
    ([ "recovery"; "--samples=0" ], "--samples");
    ([ "route"; "--links=-1" ], "--links");
    ([ "dht"; "--links=-1" ], "--links");
    (* A bound across two options: the population must fit the line. *)
    ([ "churn"; "--nodes=256"; "--initial=300" ], "--initial");
    ([ "serve"; "--nodes=256"; "--initial=300" ], "--initial");
    ([ "serve"; "--initial=1" ], "--initial");
    (* Indices and ids: a request or route id is a count, a node index
       lies in [-N, N) (the default --dst -1 is the last node). *)
    ([ "serve"; "--explain=-1" ], "--explain");
    ([ "explain"; "--route=-1" ], "--route");
    ([ "route"; "--nodes=64"; "--src=99999" ], "--src");
    (* The sanitizer battery needs its smallest builders' node count. *)
    ([ "check"; "--nodes"; "8" ], "--nodes");
    (* Worker counts are positive wherever --jobs is taken. *)
    ([ "sweep"; "--jobs=0" ], "--jobs");
    ([ "explain"; "--jobs=0" ], "--jobs");
    ([ "serve"; "--jobs=0" ], "--jobs");
    ([ "serve"; "--jobs=-1" ], "--jobs");
    ([ "sweep"; "--links=-1" ], "--links");
    ([ "snapshot"; "load"; "--messages=-1"; "net.ftrsnap" ], "--messages");
  ]

let contains s sub = Option.is_some (Ftr_lint.Suppress.find_sub s sub)

(* Under `dune runtest` the exe is a declared dep next to the test
   directory; under `dune exec` from the source tree it is in _build. *)
let p2psim () = List.find Sys.file_exists [ "../bin/p2psim.exe"; "_build/default/bin/p2psim.exe" ]

let refused_by_name () =
  let exe = p2psim () in
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

(* An FTR_* switch set to a word it does not take is refused the same
   way, naming the variable and the words it takes, before any
   subcommand runs. *)
let switch_cases =
  [ "FTR_OBS=banana"; "FTR_OBS_TRACE=maybe"; "FTR_EXEC_SEQ=2"; "FTR_CHECK=7" ]

let switch_refused () =
  let exe = p2psim () in
  let err = Filename.temp_file "p2psim_cli" ".err" in
  Fun.protect ~finally:(fun () -> Sys.remove err) @@ fun () ->
  List.iter
    (fun setting ->
      let name = List.hd (String.split_on_char '=' setting) in
      let code =
        Sys.command
          (Printf.sprintf "%s %s route --nodes 64 > /dev/null 2> %s" setting exe
             (Filename.quote err))
      in
      let text = In_channel.with_open_bin err In_channel.input_all in
      Alcotest.(check int) (setting ^ ": exit status") 124 code;
      Alcotest.(check bool) (setting ^ ": names " ^ name) true (contains text (name ^ "="));
      Alcotest.(check bool) (setting ^ ": names the accepted words") true
        (contains text "1, true, on, yes, 0, false, off, no"))
    switch_cases

(* A sweep journal that does not start with a sweep header is refused
   with exit 1, naming the file, before any job runs. *)
let bad_journal_refused () =
  let exe = p2psim () in
  let journal = Filename.temp_file "p2psim_cli" ".jsonl" in
  let err = Filename.temp_file "p2psim_cli" ".err" in
  Fun.protect ~finally:(fun () -> Sys.remove journal; Sys.remove err) @@ fun () ->
  Out_channel.with_open_text journal (fun oc -> output_string oc "not a journal\n");
  let code =
    Sys.command
      (Printf.sprintf "%s sweep --nodes 256 --checkpoint %s --resume > /dev/null 2> %s" exe
         (Filename.quote journal) (Filename.quote err))
  in
  let text = In_channel.with_open_bin err In_channel.input_all in
  Alcotest.(check int) "exit status" 1 code;
  Alcotest.(check bool) "names the file" true (contains text journal);
  Alcotest.(check bool) "names the defect" true (contains text "sweep header");
  Alcotest.(check string) "journal untouched" "not a journal\n"
    (In_channel.with_open_bin journal In_channel.input_all)

(* bench/main.exe refuses a bad flag or section name with exit 2,
   naming it, before any section runs: a smoke route section stands
   behind each case, so one that ran would leave its BENCH file. *)
let bench_cases =
  [
    ("FTR_BENCH_ONLY=route", [ "--jobs"; "x" ], "--jobs");
    ("FTR_BENCH_ONLY=route", [ "--jobs"; "0" ], "--jobs");
    ("FTR_BENCH_ONLY=route", [ "--jobs" ], "--jobs");
    ("FTR_BENCH_ONLY=route,rout", [], "FTR_BENCH_ONLY");
    ("FTR_BENCH_ONLY=route FTR_OBS=banana", [], "FTR_OBS");
  ]

let bench_refuses () =
  let exe =
    List.find Sys.file_exists [ "../bench/main.exe"; "_build/default/bench/main.exe" ]
  in
  let exe = if Filename.is_relative exe then Filename.concat (Sys.getcwd ()) exe else exe in
  let dir = Filename.temp_file "bench_cli" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  let err = Filename.concat dir "err" in
  Fun.protect ~finally:(fun () -> ignore (Sys.command ("rm -rf " ^ Filename.quote dir)))
  @@ fun () ->
  List.iter
    (fun (env, args, name) ->
      let line = String.concat " " (env :: args) in
      let code =
        Sys.command
          (Printf.sprintf "cd %s && %s FTR_BENCH_SMOKE=1 %s %s > /dev/null 2> err"
             (Filename.quote dir) env (Filename.quote exe)
             (String.concat " " (List.map Filename.quote args)))
      in
      let text = In_channel.with_open_bin err In_channel.input_all in
      Alcotest.(check int) (line ^ ": exit status") 2 code;
      Alcotest.(check bool) (line ^ ": names " ^ name) true (contains text name);
      Alcotest.(check bool) (line ^ ": no section ran") false
        (Sys.file_exists (Filename.concat dir "BENCH_route.json")))
    bench_cases

let () =
  Alcotest.run "cli"
    [
      ( "p2psim",
        [
          Alcotest.test_case "malformed input refused by name" `Quick refused_by_name;
          Alcotest.test_case "bad sweep journal refused by name" `Quick bad_journal_refused;
          Alcotest.test_case "bad FTR_* switch refused by name" `Quick switch_refused;
        ] );
      ("bench", [ Alcotest.test_case "bad input refused before any section" `Quick bench_refuses ]);
    ]
