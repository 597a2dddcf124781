(* Typed-stage (T1-T4) analyzer tests. Unlike the syntactic stage, the
   typed rules need real .cmt files, so the fixtures are a compiled
   mini-library under test/lint_fixture/ — one positive and one negative
   module per rule — analyzed exactly as `dune build @lint-typed`
   analyzes the real tree. The suite also unit-tests the call graph,
   checks the baseline's typed namespace, exercises stage-selective
   baseline regeneration (--update-baseline), and self-applies the typed
   stage to the committed tree, which must be clean modulo the typed
   entries of lint.baseline. *)

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
   shared finding stream by file. *)
let fixture = lazy (Typed_driver.analyze ~root:(Lazy.force root) ~dirs:[ "test/lint_fixture" ])

let fixture_findings file =
  let _, kept = Lazy.force fixture in
  List.filter (fun ((f : Finding.t), _) -> String.equal (Filename.basename f.file) file) kept

let rules_of file =
  List.map (fun ((f : Finding.t), _) -> Finding.rule_id f.rule) (fixture_findings file)

let test_corpus () =
  let state, _ = Lazy.force fixture in
  Alcotest.(check int)
    "all thirteen fixture units loaded (seven typed, five flow, one syntactic)" 13
    (Array.length state.Typed_rules.units)

(* T1: the cross-function race (run -> pool boundary -> job -> bump ->
   tally) fires, and — the acceptance criterion for the typed stage —
   the very same file is invisible to the syntactic rules. *)

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
  Alcotest.(check (list string)) "atomic counter variant is clean" [] (rules_of "t1_clean.ml")

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

let test_t1_invisible_to_syntactic () =
  let path = Filename.concat (Lazy.force root) "test/lint_fixture/t1_race.ml" in
  Alcotest.(check (list string))
    "R1-R5 see nothing in the race fixture" []
    (List.map (fun ((f : Finding.t), _) -> Finding.rule_id f.rule) (Driver.lint_file path))

(* T2: the transitively tainted [sample] is flagged; the direct source
   [jitter] is R1's job, and the seeded-generator path stays clean. *)

let test_t2 () =
  match fixture_findings "t2_taint.ml" with
  | [ (f, _) ] ->
      Alcotest.(check string) "rule is T2" "T2" (Finding.rule_id f.rule);
      Alcotest.(check bool) "flags sample, not the direct source" true
        (contains f.message "sample");
      Alcotest.(check bool) "chain reaches the Random call" true (contains f.message "Random")
  | fs -> Alcotest.failf "expected exactly one T2 finding, got %d" (List.length fs)

(* T3: poly [=] at a float-carrying record fires; at int it does not. *)

let test_t3 () =
  match fixture_findings "t3_cmp.ml" with
  | [ (f, _) ] ->
      Alcotest.(check string) "rule is T3" "T3" (Finding.rule_id f.rule);
      Alcotest.(check bool) "blames the float payload" true (contains f.message "float")
  | fs -> Alcotest.failf "expected exactly one T3 finding, got %d" (List.length fs)

(* T4: a tuple allocated in a loop of a hot module fires; the
   allocation-free loop next to it does not. *)

let test_t4 () =
  match fixture_findings "t4_hot.ml" with
  | [ (f, _) ] ->
      Alcotest.(check string) "rule is T4" "T4" (Finding.rule_id f.rule);
      Alcotest.(check bool) "names the tuple allocation" true (contains f.message "tuple")
  | fs -> Alcotest.failf "expected exactly one T4 finding, got %d" (List.length fs)

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

(* Call graph: gated edges, forward/reverse BFS and witness chains. *)

let test_callgraph () =
  let g = Callgraph.create () in
  let n name line = Callgraph.add_node g ~name ~file:"f.ml" ~line ~col:0 in
  let a = n "A" 1 and b = n "B" 2 and c = n "C" 3 and d = n "D" 4 in
  Callgraph.add_edge g a b;
  Callgraph.add_edge g ~gated:true b c;
  Callgraph.add_edge g b d;
  Alcotest.(check int) "node count" 4 (Callgraph.node_count g);
  let visited = Callgraph.reachable g ~through_gated:false [ a ] in
  Alcotest.(check bool) "ungated path A->B->D crossed" true visited.(d);
  Alcotest.(check bool) "gated edge B->C refused" false visited.(c);
  let visited, parent = Callgraph.bfs g ~through_gated:true [ a ] in
  Alcotest.(check bool) "gated edge crossed when allowed" true visited.(c);
  Alcotest.(check (list string)) "witness chain" [ "A"; "B"; "C" ] (Callgraph.chain g parent c);
  let rvisited = Callgraph.reachable g ~reverse:true [ c ] in
  Alcotest.(check bool) "reverse BFS reaches the caller" true rvisited.(a);
  Alcotest.(check bool) "reverse BFS skips the sibling" false rvisited.(d)

(* Baseline: typed findings round-trip under the `typed:` rule
   namespace and absorb like syntactic ones. *)

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
  Baseline.save path [ entry (fake Finding.R1 "lib/a.ml"); entry (fake Finding.T1 "lib/b.ml") ];
  let code =
    Driver.run ~write_baseline:path ~quiet:true ~stages:[ Finding.Typed ]
      ~dirs:[ "lib"; "bin"; "bench" ] ()
  in
  let reloaded = Baseline.load path in
  Sys.remove path;
  Alcotest.(check int) "regeneration exits 0" 0 code;
  match reloaded with
  | [ e ] ->
      Alcotest.(check string) "stale typed entry dropped, syntactic entry kept" "syntactic"
        (Finding.stage_id (Baseline.entry_stage e))
  | es -> Alcotest.failf "expected exactly the carried-over entry, got %d" (List.length es)

(* Self-application: the typed stage over the real tree is clean modulo
   the typed entries of the committed baseline. *)

let test_self_application () =
  let root = Lazy.force root in
  let state, findings = Typed_driver.analyze ~root ~dirs:[ "lib"; "bin"; "bench" ] in
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
          Alcotest.test_case "T1 race invisible to R1-R5" `Quick test_t1_invisible_to_syntactic;
          Alcotest.test_case "T1 mailbox seam sanctioned" `Quick test_t1_mailbox_seam;
          Alcotest.test_case "T2 nondeterminism-taint" `Quick test_t2;
          Alcotest.test_case "T3 typed-polymorphic-comparison" `Quick test_t3;
          Alcotest.test_case "T4 typed-hot-path-allocation" `Quick test_t4;
          Alcotest.test_case "T4 boxed int32 in a hot loop" `Quick test_t4_int32;
          Alcotest.test_case "T3 polymorphic compare at a Bigarray" `Quick test_t3_bigarray;
        ] );
      ( "machinery",
        [
          Alcotest.test_case "callgraph BFS and gating" `Quick test_callgraph;
          Alcotest.test_case "typed baseline namespace" `Quick test_typed_baseline;
          Alcotest.test_case "stage-selective --update-baseline" `Quick test_update_baseline;
        ] );
      ("self", [ Alcotest.test_case "typed stage clean on the tree" `Quick test_self_application ]);
    ]
