(* Typed-stage (T1-T6) analyzer tests. The typed rules need real .cmt
   files, so the fixtures are a compiled mini-library under
   test/lint_fixture/ — positives and negatives for every rule —
   analyzed exactly as `dune build @lint-typed` analyzes the real tree,
   with this directory's units as T6's test/ observers.
   The suite also unit-tests the call graph, checks the baseline's typed
   namespace, exercises stage-selective baseline regeneration
   (--update-baseline), and self-applies the typed stage to the
   committed tree, which must be clean modulo the typed entries of
   lint.baseline. *)

module Finding = Ftr_lint.Finding
module Driver = Ftr_lint.Driver
module Baseline = Ftr_lint.Baseline
module Callgraph = Ftr_lint.Callgraph
module Typed_rules = Ftr_lint.Typed_rules
module Typed_driver = Ftr_lint.Typed_driver

let contains s sub = Option.is_some (Ftr_lint.Suppress.find_sub s sub)

(* Tests run from _build/default/test; walk up to the build context root
   (the nearest ancestor holding dune-project), next to which the
   fixture library's and the real tree's .objs directories sit. *)
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

(* The fixture corpus is analyzed once; each rule test filters the
   shared finding stream by file. T6 judges the exports of the t6_*
   fixtures (on the real tree, of lib/). *)
let fixture =
  lazy
    (Typed_driver.analyze
       ~exported:(fun source -> String.starts_with ~prefix:"t6_" (Filename.basename source))
       ~root:(Lazy.force root) ~dirs:[ "test/lint_fixture" ] ())

let fixture_findings file =
  let _, kept = Lazy.force fixture in
  List.filter (fun ((f : Finding.t), _) -> String.equal (Filename.basename f.file) file) kept

let rules_of file =
  List.map (fun ((f : Finding.t), _) -> Finding.rule_id f.rule) (fixture_findings file)

let test_corpus () =
  let state, _ = Lazy.force fixture in
  Alcotest.(check int)
    "all seventeen fixture units loaded (fourteen typed, three flow)" 17
    (Array.length state.Typed_rules.units)

(* T1: the cross-function race (run -> pool boundary -> job -> bump ->
   tally) fires; the Atomic twin stays quiet. *)

let test_t1 () =
  (match fixture_findings "t1_race.ml" with
  | [] -> Alcotest.fail "expected T1 findings on t1_race.ml"
  | fs ->
      List.iter
        (fun ((f : Finding.t), _) ->
          Alcotest.(check string) "rule is T1" "T1" (Finding.rule_id f.rule);
          Alcotest.(check bool) "names the shared global" true (contains f.message "tally");
          Alcotest.(check bool) "witness chain passes through bump" true
            (contains f.message "bump"))
        fs);
  Alcotest.(check (list string)) "atomic counter variant is clean" [] (rules_of "t1_clean.ml");
  (* Only written globals race: the table nothing writes is quiet, its
     twin passed to an unknown function fires at both reads. *)
  match
    List.map
      (fun ((f : Finding.t), _) -> (Finding.rule_id f.rule, f.line, f.message))
      (fixture_findings "t1_readonly.ml")
  with
  | [ ("T1", 19, m1); ("T1", 19, m2) ] ->
      List.iter
        (fun m ->
          Alcotest.(check bool) "names the written table" true
            (contains m "limits" && not (contains m "weights")))
        [ m1; m2 ]
  | fs -> Alcotest.failf "expected the two reads of limits, got %d T1 finding(s)" (List.length fs)

(* The service's mailbox seam: draining a toplevel [Ftr_svc.Mailbox.t]
   from pool workers is sanctioned (the round barrier sequences posts
   and drains), while the structurally identical [Queue.t] handoff in
   the same file must still fire. *)
let test_t1_mailbox_seam () =
  (match fixture_findings "t1_mailbox.ml" with
  | [] -> Alcotest.fail "expected a T1 finding on the Queue.t twin in t1_mailbox.ml"
  | fs ->
      List.iter
        (fun ((f : Finding.t), _) ->
          Alcotest.(check string) "rule is T1" "T1" (Finding.rule_id f.rule);
          Alcotest.(check bool) "names the queue, not the mailbox" true
            (contains f.message "queue" && not (contains f.message "T1_mailbox.mailbox")))
        fs)

(* Findings of [file] as (rule, line, message). *)
let findings_of file =
  List.map
    (fun ((f : Finding.t), _) -> (Finding.rule_id f.rule, f.line, f.message))
    (fixture_findings file)

(* T2: the direct readers of Random.int, Unix.gettimeofday, Sys.time and
   the monotonic clock outside the one seam, and the transitively tainted
   [sample], are flagged, each at its binding, and the
   module-initialisation read at the read itself; the seeded-generator
   path stays clean. *)

let test_t2 () =
  match findings_of "t2_taint.ml" with
  | [ ("T2", 7, m1); ("T2", 9, m2); ("T2", 11, m3); ("T2", 13, m4); ("T2", 19, m5); ("T2", 21, m6) ]
    ->
      List.iter2
        (fun m what -> Alcotest.(check bool) ("names " ^ what) true (contains m what))
        [ m1; m2; m3; m6 ]
        [ "Random.int"; "Unix.gettimeofday"; "Sys.time"; "Monotonic_clock.clock_linux_get_time" ];
      Alcotest.(check bool) "flags sample through jitter" true
        (contains m4 "sample -> Lint_fixture.T2_taint.jitter");
      Alcotest.(check bool) "chain reaches the Random call" true (contains m4 "Random");
      Alcotest.(check bool) "init read blamed on itself" true
        (contains m5 "Sys.time runs in module initialisation")
  | fs -> Alcotest.failf "expected exactly the six T2 positives, got %d" (List.length fs)

(* T3: poly [=] at a float-carrying record and at a float pair fires; at
   int, string, int pair, int option and a still-polymorphic [compare]
   it does not. *)

let test_t3 () =
  match findings_of "t3_cmp.ml" with
  | [ ("T3", 9, m1); ("T3", 11, m2) ] ->
      List.iter
        (fun m -> Alcotest.(check bool) "blames the float payload" true (contains m "float"))
        [ m1; m2 ]
  | fs -> Alcotest.failf "expected exactly the two T3 positives, got %d" (List.length fs)

(* T4: a tuple allocated in a loop of a hot module fires, and so do a
   [List.mem] and an [@] anywhere in it; the allocation-free loop and
   the array read next to them do not, nor does the same list code in
   the untagged t4_cold.ml. *)

let test_t4 () =
  (match findings_of "t4_hot.ml" with
  | [ ("T4", 12, m1); ("T4", 25, m2); ("T4", 27, m3) ] ->
      Alcotest.(check bool) "names the tuple allocation" true (contains m1 "tuple");
      Alcotest.(check bool) "names List.mem" true (contains m2 "List.mem scans");
      Alcotest.(check bool) "names @" true (contains m3 "@ scans")
  | fs -> Alcotest.failf "expected exactly the three T4 positives, got %d" (List.length fs));
  Alcotest.(check (list string)) "untagged module is quiet" [] (rules_of "t4_cold.ml")

(* The samples of the retired Parsetree rules R1, R2 and R5, now in the
   compiled fixtures, under the verdicts of their typed successors. *)

let lines_of rule file =
  List.filter_map
    (fun ((f : Finding.t), _) ->
      if String.equal (Finding.rule_id f.rule) rule then Some f.line else None)
    (fixture_findings file)

let check_line rule file what line expected =
  Alcotest.(check bool) what expected (List.mem line (lines_of rule file))

(* R1's direct reads of Random.int, Unix.gettimeofday and Sys.time fire
   T2 at their bindings; the seeded generator stays clean. *)

let test_r1 () =
  check_line "T2" "t2_taint.ml" "Random.int fires" 7 true;
  check_line "T2" "t2_taint.ml" "Unix.gettimeofday fires" 9 true;
  check_line "T2" "t2_taint.ml" "Sys.time fires" 11 true;
  check_line "T2" "t2_taint.ml" "seeded rng is fine" 15 false;
  check_line "T2" "t2_taint.ml" "seeded rng caller is fine" 17 false

(* R2's heuristic positives: T3 judges them by type. The int pair, the
   string, the int option and the still-polymorphic [compare] are
   silent; the float pair fires. *)

let test_r2 () =
  check_line "T3" "t3_cmp.ml" "poly = on float pair fires" 11 true;
  check_line "T3" "t3_cmp.ml" "poly = on int tuple is fine" 15 false;
  check_line "T3" "t3_cmp.ml" "poly <> on string literal is fine" 17 false;
  check_line "T3" "t3_cmp.ml" "poly = on int option is fine" 19 false;
  check_line "T3" "t3_cmp.ml" "bare polymorphic compare is judged at callers" 21 false

(* R5's List.mem and @ in a hot module fire T4; the array read and the
   same list code without the tag do not. *)

let test_r5 () =
  check_line "T4" "t4_hot.ml" "List.mem in a hot module fires" 25 true;
  check_line "T4" "t4_hot.ml" "@ in a hot module fires" 27 true;
  check_line "T4" "t4_hot.ml" "arrays in a hot module are fine" 29 false;
  Alcotest.(check (list int)) "same code without the tag is fine" [] (lines_of "T4" "t4_cold.ml")

(* The Bigarray seams: a bare int32 Bigarray read in a hot loop boxes
   its result and fires T4; the directly-wrapped [Int32.to_int (...)]
   read next to it — the Adjacency.I32 accessor pattern — does not.
   Polymorphic [=] at the abstract Bigarray type fires T3. *)

let test_t4_int32 () =
  let t4 =
    List.filter
      (fun ((f : Finding.t), _) -> String.equal (Finding.rule_id f.rule) "T4")
      (fixture_findings "t4_int32.ml")
  in
  match t4 with
  | [ (f, _) ] ->
      Alcotest.(check bool) "names the int32 box" true (contains f.message "boxed int32");
      Alcotest.(check bool) "points at the accessor idiom" true
        (contains f.message "Int32.to_int")
  | fs -> Alcotest.failf "expected exactly one T4 finding, got %d" (List.length fs)

let test_t3_bigarray () =
  let t3 =
    List.filter
      (fun ((f : Finding.t), _) -> String.equal (Finding.rule_id f.rule) "T3")
      (fixture_findings "t4_int32.ml")
  in
  match t3 with
  | [ (f, _) ] ->
      Alcotest.(check bool) "blames the Bigarray type" true (contains f.message "Bigarray")
  | fs -> Alcotest.failf "expected exactly one T3 finding, got %d" (List.length fs)

(* T5: Hashtbl.iter inside [emit_counts] and Hashtbl.fold inside
   [to_json] fire; the fold outside any output path, the one sorted
   before rendering and the one under the [Export] module path do not. *)

let test_t5 () =
  match findings_of "t5_order.ml" with
  | [ ("T5", 10, m1); ("T5", 13, m2) ] ->
      Alcotest.(check bool) "names iter and its binding" true
        (contains m1 {|Hashtbl.iter inside "emit_counts"|});
      Alcotest.(check bool) "names fold and its binding" true
        (contains m2 {|Hashtbl.fold inside "to_json"|})
  | fs -> Alcotest.failf "expected exactly the two T5 positives, got %d" (List.length fs)

(* T6: in t6_export.mli, the export no unit names, the one only its
   own unit names and the one only this test names (below) fire on
   their .mli lines; the one t6_noint.ml names and the two suppressed
   ones, one of them named by this test, do not. In t6_noint.ml (no
   .mli) the unnamed and the only self-recursive toplevels fire; the one
   its initialisation code names does not. T6_base.included is named
   only through t6_via.ml's include. *)

let test_t6 () =
  (match findings_of "t6_export.mli" with
  | [ ("T6", 7, m1); ("T6", 9, m2); ("T6", 13, m3) ] ->
      Alcotest.(check bool) "unused: delete it" true
        (contains m1 "Lint_fixture.T6_export.unused" && contains m1 "delete it");
      Alcotest.(check bool) "own_only: drop the .mli line" true
        (contains m2 "Lint_fixture.T6_export.own_only" && contains m2 "only its own unit");
      Alcotest.(check bool) "tested: only test/ names it" true
        (contains m3 "Lint_fixture.T6_export.tested" && contains m3 "only test/ names it")
  | fs ->
      Alcotest.failf "expected exactly the three t6_export.mli positives, got %d" (List.length fs));
  (match findings_of "t6_noint.ml" with
  | [ ("T6", 6, m1); ("T6", 8, m2) ] ->
      Alcotest.(check bool) "names dead" true (contains m1 "T6_noint.dead");
      Alcotest.(check bool) "names spin" true (contains m2 "T6_noint.spin")
  | fs -> Alcotest.failf "expected exactly the two t6_noint.ml positives, got %d" (List.length fs));
  Alcotest.(check (list string)) "the export used through include is quiet" []
    (rules_of "t6_base.mli");
  Alcotest.(check int) "the test-only exports, called" 7
    (Lint_fixture.T6_export.tested 2 + Lint_fixture.T6_export.tested_kept 4)

(* Call graph: gated edges, forward/reverse BFS and witness chains. *)

let test_callgraph () =
  let g = Callgraph.create () in
  let n name line = Callgraph.add_node g ~name ~file:"f.ml" ~line ~col:0 in
  let a = n "A" 1 and b = n "B" 2 and c = n "C" 3 and d = n "D" 4 in
  Callgraph.add_edge g a b;
  Callgraph.add_edge g ~gated:true b c;
  Callgraph.add_edge g b d;
  Alcotest.(check int) "node count" 4 (Callgraph.node_count g);
  let visited, _ = Callgraph.bfs g ~through_gated:false [ a ] in
  Alcotest.(check bool) "ungated path A->B->D crossed" true visited.(d);
  Alcotest.(check bool) "gated edge B->C refused" false visited.(c);
  let visited, parent = Callgraph.bfs g ~through_gated:true [ a ] in
  Alcotest.(check bool) "gated edge crossed when allowed" true visited.(c);
  Alcotest.(check (list string)) "witness chain" [ "A"; "B"; "C" ] (Callgraph.chain g parent c);
  let rvisited, _ = Callgraph.bfs g ~reverse:true [ c ] in
  Alcotest.(check bool) "reverse BFS reaches the caller" true rvisited.(a);
  Alcotest.(check bool) "reverse BFS skips the sibling" false rvisited.(d)

(* Baseline: typed findings round-trip under the `typed:` rule
   namespace. *)

let test_typed_baseline () =
  let kept = fixture_findings "t1_race.ml" @ fixture_findings "t3_cmp.ml" in
  let entries = List.map (fun (f, line) -> Baseline.entry_of_finding ~source_line:line f) kept in
  let path = Filename.temp_file "ftr_lint_typed" ".baseline" in
  Baseline.save path entries;
  let ic = open_in_bin path in
  let text = really_input_string ic (in_channel_length ic) in
  close_in ic;
  let reloaded = Baseline.load path in
  Sys.remove path;
  Alcotest.(check bool) "entries saved under the typed namespace" true (contains text "typed:T1");
  Alcotest.(check int) "round-trip preserves entries" (List.length entries)
    (List.length reloaded);
  List.iter
    (fun e ->
      Alcotest.(check string) "entry stage is typed" "typed"
        (Finding.stage_id (Baseline.entry_stage e)))
    reloaded;
  let fresh, baselined, stale = Baseline.apply reloaded kept in
  Alcotest.(check int) "all findings absorbed" 0 (List.length fresh);
  Alcotest.(check int) "all entries used" (List.length entries) baselined;
  Alcotest.(check int) "nothing stale" 0 stale

(* --update-baseline is stage-selective: regenerating the typed stage
   rewrites typed entries (to none — the tree is clean) and carries
   entries of the other stage over untouched. *)

let test_update_baseline () =
  let cwd = Sys.getcwd () in
  Fun.protect ~finally:(fun () -> Sys.chdir cwd) @@ fun () ->
  Sys.chdir (Lazy.force root);
  let fake rule file = ({ Finding.file; line = 1; col = 0; rule; message = "m" }, "let x = 1") in
  let entry (f, l) = Baseline.entry_of_finding ~source_line:l f in
  let path = Filename.temp_file "ftr_lint_regen" ".baseline" in
  Baseline.save path [ entry (fake Finding.D1 "lib/a.ml"); entry (fake Finding.T1 "lib/b.ml") ];
  let code =
    Driver.run ~write_baseline:path ~quiet:true ~stages:[ Finding.Typed ]
      ~dirs:[ "lib"; "bin"; "bench"; "examples" ] ()
  in
  let reloaded = Baseline.load path in
  Sys.remove path;
  Alcotest.(check int) "regeneration exits 0" 0 code;
  match reloaded with
  | [ e ] ->
      Alcotest.(check string) "stale typed entry dropped, flow entry kept" "flow"
        (Finding.stage_id (Baseline.entry_stage e))
  | es -> Alcotest.failf "expected exactly the carried-over entry, got %d" (List.length es)

(* An artifact that does not read back is a named error (exit 2), not a
   unit or an interface quietly dropped; a missing .cmti still means "no
   .mli". The corpus is a copy of one real unit (Ftr_metric.Ring) beside
   a truncated copy of its .cmt. *)
let test_unreadable_artifacts () =
  let root = Lazy.force root in
  let exe =
    List.find Sys.file_exists
      (List.map (Filename.concat root) [ "bin/ftr_lint.exe"; "_build/default/bin/ftr_lint.exe" ])
  in
  let cmt =
    List.find
      (fun p -> String.equal (Filename.basename p) "ftr_metric__Ring.cmt")
      (Ftr_lint.Cmt_loader.cmt_paths ~root [ "lib/metric" ])
  in
  let tmp = Filename.temp_file "ftr_lint_corpus" "" in
  Sys.remove tmp;
  Sys.mkdir tmp 0o755;
  Fun.protect ~finally:(fun () -> ignore (Sys.command ("rm -rf " ^ Filename.quote tmp)))
  @@ fun () ->
  let byte =
    List.fold_left
      (fun d name ->
        let d = Filename.concat d name in
        Sys.mkdir d 0o755;
        d)
      tmp [ "lib"; ".corpus.objs"; "byte" ]
  in
  let read p = In_channel.with_open_bin p In_channel.input_all in
  let write p s = Out_channel.with_open_bin p (fun oc -> output_string oc s) in
  let half s = String.sub s 0 (String.length s / 2) in
  let interface = Filename.concat byte "ring.cmti" and broken = Filename.concat byte "broken.cmt" in
  write (Filename.concat byte "ring.cmt") (read cmt);
  write interface (read (Filename.remove_extension cmt ^ ".cmti"));
  write broken (half (read cmt));
  let lint () =
    let out = Filename.concat tmp "out" and err = Filename.concat tmp "err" in
    let code =
      Sys.command
        (Printf.sprintf "cd %s && %s lib > %s 2> %s" (Filename.quote tmp) exe out err)
    in
    (code, read out, read err)
  in
  let code, _, err = lint () in
  Alcotest.(check int) "a truncated .cmt exits 2" 2 code;
  Alcotest.(check bool) ("names the .cmt: " ^ err) true (contains err "broken.cmt");
  Sys.remove broken;
  write interface (half (read interface));
  let code, _, err = lint () in
  Alcotest.(check int) "a truncated .cmti exits 2" 2 code;
  Alcotest.(check bool) ("names the .cmti: " ^ err) true (contains err "ring.cmti");
  Sys.remove interface;
  let code, out, _ = lint () in
  Alcotest.(check int) "without a .cmti, T6 judges the toplevels" 1 code;
  Alcotest.(check bool) "as a unit without an .mli" true (contains out "without an .mli")

(* Self-application: the typed stage over the real tree is clean modulo
   the typed entries of the committed baseline. *)

let test_self_application () =
  let root = Lazy.force root in
  let state, findings = Typed_driver.analyze ~root ~dirs:[ "lib"; "bin"; "bench"; "examples" ] () in
  Alcotest.(check bool) "a real corpus loaded" true (Array.length state.Typed_rules.units >= 40);
  let entries =
    List.filter
      (fun e -> match Baseline.entry_stage e with Finding.Typed -> true | _ -> false)
      (Baseline.load (Filename.concat root "lint.baseline"))
  in
  let fresh, _, stale = Baseline.apply entries findings in
  Alcotest.(check (list string))
    "no non-baselined typed findings in the tree" []
    (List.map (fun (f, _) -> Finding.to_string f) fresh);
  Alcotest.(check int) "no stale typed baseline entries" 0 stale

let () =
  Alcotest.run "lint_typed"
    [
      ( "rules",
        [
          Alcotest.test_case "fixture corpus loads" `Quick test_corpus;
          Alcotest.test_case "T1 domain-race" `Quick test_t1;
          Alcotest.test_case "T1 mailbox seam sanctioned" `Quick test_t1_mailbox_seam;
          Alcotest.test_case "T2 nondeterminism-taint" `Quick test_t2;
          Alcotest.test_case "T3 typed-polymorphic-comparison" `Quick test_t3;
          Alcotest.test_case "T4 typed-hot-path-allocation" `Quick test_t4;
          Alcotest.test_case "T4 boxed int32 in a hot loop" `Quick test_t4_int32;
          Alcotest.test_case "T3 polymorphic compare at a Bigarray" `Quick test_t3_bigarray;
          Alcotest.test_case "T5 typed-unordered-iteration-in-output" `Quick test_t5;
          Alcotest.test_case "T6 unreferenced-export" `Quick test_t6;
          Alcotest.test_case "R1 nondeterminism-source" `Quick test_r1;
          Alcotest.test_case "R2 polymorphic-comparison" `Quick test_r2;
          Alcotest.test_case "R5 hot-path-allocation" `Quick test_r5;
        ] );
      ( "machinery",
        [
          Alcotest.test_case "callgraph BFS and gating" `Quick test_callgraph;
          Alcotest.test_case "typed baseline namespace" `Quick test_typed_baseline;
          Alcotest.test_case "stage-selective --update-baseline" `Quick test_update_baseline;
          Alcotest.test_case "unreadable .cmt and .cmti are named errors" `Quick
            test_unreadable_artifacts;
        ] );
      ("self", [ Alcotest.test_case "typed stage clean on the tree" `Quick test_self_application ]);
    ]
