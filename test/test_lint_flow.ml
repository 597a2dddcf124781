(* Flow-stage (D1, D2, D4) analyzer tests. The rules are CFG- and
   dataflow-driven, so like the typed stage they need real .cmt files:
   the compiled fixtures under test/lint_fixture/ carry one positive and
   one negative per rule, analyzed exactly as `dune build @lint-flow`
   analyzes the real tree. The suite also checks the baseline's flow
   namespace, stage-selective regeneration, the CLI's usage errors, the
   byte-identity of lint.json, and — as a qcheck property — that the
   finding stream is byte-identical across --jobs 1/2/4 and
   FTR_EXEC_SEQ=1. *)

module Finding = Ftr_lint.Finding
module Driver = Ftr_lint.Driver
module Baseline = Ftr_lint.Baseline
module Flow_driver = Ftr_lint.Flow_driver

let contains s sub = Option.is_some (Ftr_lint.Suppress.find_sub s sub)

let root =
  lazy
    (let rec up d =
       if Sys.file_exists (Filename.concat d "dune-project") then d
       else
         let parent = Filename.dirname d in
         if String.equal parent d then
           Alcotest.fail "no dune-project above the test's working directory"
         else up parent
     in
     up (Sys.getcwd ()))

let analyze_fixture ?jobs () =
  Flow_driver.analyze ?jobs ~root:(Lazy.force root) ~dirs:[ "test/lint_fixture" ] ()

(* The fixture corpus is analyzed once; each rule test filters the
   shared finding stream by file. *)
let fixture = lazy (analyze_fixture ())

let fixture_findings file =
  let kept, _ = Lazy.force fixture in
  List.filter (fun ((f : Finding.t), _) -> String.equal (Filename.basename f.file) file) kept

let findings_of file =
  List.map
    (fun ((f : Finding.t), _) -> (Finding.rule_id f.rule, f.line, f.message))
    (fixture_findings file)

let test_corpus () =
  let _, units = Lazy.force fixture in
  Alcotest.(check int) "all seventeen fixture units loaded" 17 units

(* D1: the ungated write, the post-join write and the ungated batched
   histogram update fire; the gated write, the gate-variable conjunction
   and the closure capturing it do not. *)
let test_d1 () =
  match findings_of "d1_gate.ml" with
  | [ ("D1", l1, m1); ("D1", l2, m2); ("D1", l3, m3) ] ->
      Alcotest.(check int) "the ungated write" 8 l1;
      Alcotest.(check int) "the post-join write" 14 l2;
      Alcotest.(check int) "the ungated observe_ints" 34 l3;
      List.iter
        (fun m ->
          Alcotest.(check bool) "message points at the gate" true (contains m "Flag.enabled"))
        [ m1; m2; m3 ]
  | fs -> Alcotest.failf "expected exactly the three D1 positives, got %d findings" (List.length fs)

(* D2 snapshot typestate: routing an unvalidated load fires at the use
   site, through Route.route and the lockstep batch entry alike;
   validated and validate:true paths stay silent. *)
let test_d2_snapshot () =
  match findings_of "d2_snapshot.ml" with
  | [ ("D2", 23, m1); ("D2", 39, m2) ] ->
      List.iter
        (fun m ->
          Alcotest.(check bool) "message names the validators" true (contains m "Check.snapshot"))
        [ m1; m2 ]
  | fs -> Alcotest.failf "expected exactly two D2 use findings, got %d findings" (List.length fs)

(* D4: the invariant reload in the hot loop fires; the with_mode-dirty
   loop stays silent. *)
let test_d4 () =
  match findings_of "d4_loop.ml" with
  | [ ("D4", 10, m) ] ->
      Alcotest.(check bool) "suggests hoisting" true (contains m "hoist")
  | fs -> Alcotest.failf "expected exactly one D4 finding, got %d findings" (List.length fs)

(* T5 has no flow-stage counterpart, so a `--stage all` run over the
   fixtures must report it beside the D-rules. *)
let test_t5_with_flow () =
  let cwd = Sys.getcwd () in
  Fun.protect ~finally:(fun () -> Sys.chdir cwd) @@ fun () ->
  Sys.chdir (Lazy.force root);
  let json = Filename.temp_file "ftr_lint_t5" ".json" in
  let code = Driver.run ~json ~quiet:true ~dirs:[ "test/lint_fixture" ] () in
  let ic = open_in_bin json in
  let text = really_input_string ic (in_channel_length ic) in
  close_in ic;
  Sys.remove json;
  Alcotest.(check int) "findings exit 1" 1 code;
  Alcotest.(check bool) "T5 reported on the fixture" true
    (contains text {|"file":"test/lint_fixture/t5_order.ml","line":10,"col":2,"rule":"T5"|});
  Alcotest.(check bool) "beside the flow findings" true
    (contains text {|"file":"test/lint_fixture/d1_gate.ml"|})

(* Baseline: flow findings round-trip under the `flow:` namespace. *)
let test_flow_baseline () =
  let kept = fixture_findings "d1_gate.ml" @ fixture_findings "d4_loop.ml" in
  let entries = List.map (fun (f, line) -> Baseline.entry_of_finding ~source_line:line f) kept in
  let path = Filename.temp_file "ftr_lint_flow" ".baseline" in
  Baseline.save path entries;
  let ic = open_in_bin path in
  let text = really_input_string ic (in_channel_length ic) in
  close_in ic;
  let reloaded = Baseline.load path in
  Sys.remove path;
  Alcotest.(check bool) "entries saved under the flow namespace" true (contains text "flow:D1");
  Alcotest.(check int) "round-trip preserves entries" (List.length entries)
    (List.length reloaded);
  List.iter
    (fun e ->
      Alcotest.(check string) "entry stage is flow" "flow"
        (Finding.stage_id (Baseline.entry_stage e)))
    reloaded;
  let fresh, baselined, stale = Baseline.apply reloaded kept in
  Alcotest.(check int) "all findings absorbed" 0 (List.length fresh);
  Alcotest.(check int) "all entries used" (List.length entries) baselined;
  Alcotest.(check int) "nothing stale" 0 stale

(* --update-baseline is stage-selective for the flow stage too:
   regenerating it rewrites flow entries (to none — the tree is clean)
   and carries the other stages' entries over untouched. *)
let test_update_baseline () =
  let cwd = Sys.getcwd () in
  Fun.protect ~finally:(fun () -> Sys.chdir cwd) @@ fun () ->
  Sys.chdir (Lazy.force root);
  let fake rule file = ({ Finding.file; line = 1; col = 0; rule; message = "m" }, "let x = 1") in
  let entry (f, l) = Baseline.entry_of_finding ~source_line:l f in
  let path = Filename.temp_file "ftr_lint_flow_regen" ".baseline" in
  Baseline.save path [ entry (fake Finding.T1 "lib/a.ml"); entry (fake Finding.D1 "lib/b.ml") ];
  let code =
    Driver.run ~write_baseline:path ~quiet:true ~stages:[ Finding.Flow ]
      ~dirs:[ "lib"; "bin"; "bench" ] ()
  in
  let reloaded = Baseline.load path in
  Sys.remove path;
  Alcotest.(check int) "regeneration exits 0" 0 code;
  match reloaded with
  | [ e ] ->
      Alcotest.(check string) "stale flow entry dropped, typed entry kept" "typed"
        (Finding.stage_id (Baseline.entry_stage e))
  | es -> Alcotest.failf "expected exactly the carried-over entry, got %d" (List.length es)

(* The CLI exits 2 with a usage message on an unknown --stage, the
   retired syntactic stage included. *)
let test_cli_unknown_stage () =
  let cwd = Sys.getcwd () in
  Fun.protect ~finally:(fun () -> Sys.chdir cwd) @@ fun () ->
  Sys.chdir (Lazy.force root);
  (* Under `dune runtest` the sandbox root holds the exe directly (it
     is a declared dep); under `dune exec` from the source tree it only
     exists inside _build. *)
  let exe =
    List.find Sys.file_exists
      [ "bin/ftr_lint.exe"; Filename.concat "_build/default" "bin/ftr_lint.exe" ]
  in
  List.iter
    (fun stage ->
      let err = Filename.temp_file "ftr_lint_usage" ".err" in
      let code = Sys.command (Printf.sprintf "%s --stage %s lib 2> %s" exe stage err) in
      let ic = open_in_bin err in
      let text = really_input_string ic (in_channel_length ic) in
      close_in ic;
      Sys.remove err;
      Alcotest.(check int) (stage ^ ": exit status 2") 2 code;
      Alcotest.(check bool) (stage ^ ": names the bad stage") true (contains text stage);
      Alcotest.(check bool) (stage ^ ": prints usage") true (contains text "usage: ftr_lint"))
    [ "bogus"; "syntactic" ]

let render findings =
  String.concat "\n"
    (List.map (fun ((f : Finding.t), line) -> Finding.to_string f ^ "\t" ^ line) findings)

(* qcheck: the rendered finding stream is byte-identical across
   --jobs 1/2/4 and FTR_EXEC_SEQ=1. *)
let prop_jobs_identity =
  let reference = lazy (render (fst (analyze_fixture ~jobs:1 ()))) in
  QCheck.Test.make ~name:"flow findings byte-identical across jobs/seq" ~count:8
    QCheck.(pair (int_range 0 2) bool)
    (fun (jobs_idx, seq) ->
      let jobs = [| 1; 2; 4 |].(jobs_idx) in
      Ftr_exec.Pool.with_sequential_forced seq @@ fun () ->
      String.equal (Lazy.force reference) (render (fst (analyze_fixture ~jobs ()))))

(* Self-application: the flow stage over the real tree is clean modulo
   the flow entries of the committed baseline (of which there are none —
   the flow baseline ships empty). *)
let test_self_application () =
  let root = Lazy.force root in
  let findings, units =
    Flow_driver.analyze ~root ~dirs:[ "lib"; "bin"; "bench"; "examples" ] ()
  in
  Alcotest.(check bool) "a real corpus loaded" true (units >= 40);
  let entries =
    List.filter
      (fun e -> match Baseline.entry_stage e with Finding.Flow -> true | _ -> false)
      (Baseline.load (Filename.concat root "lint.baseline"))
  in
  Alcotest.(check int) "the flow baseline ships empty" 0 (List.length entries);
  let fresh, _, stale = Baseline.apply entries findings in
  Alcotest.(check (list string))
    "no non-baselined flow findings in the tree" []
    (List.map (fun (f, _) -> Finding.to_string f) fresh);
  Alcotest.(check int) "no stale flow baseline entries" 0 stale

let () =
  Alcotest.run "lint_flow"
    [
      ( "rules",
        [
          Alcotest.test_case "fixture corpus loads" `Quick test_corpus;
          Alcotest.test_case "D1 gate-dominance" `Quick test_d1;
          Alcotest.test_case "D2 snapshot typestate" `Quick test_d2_snapshot;
          Alcotest.test_case "D4 loop-invariant reload" `Quick test_d4;
          Alcotest.test_case "T5 reported under --stage all" `Quick test_t5_with_flow;
        ] );
      ( "machinery",
        [
          Alcotest.test_case "flow baseline namespace" `Quick test_flow_baseline;
          Alcotest.test_case "stage-selective --update-baseline" `Quick test_update_baseline;
          Alcotest.test_case "CLI usage error on unknown stage" `Quick test_cli_unknown_stage;
          QCheck_alcotest.to_alcotest prop_jobs_identity;
        ] );
      ("self", [ Alcotest.test_case "flow stage clean on the tree" `Quick test_self_application ]);
    ]
