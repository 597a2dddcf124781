(* ftr-lint: disable-file R5 embedded lint samples carry a hot marker; the test file itself has no hot path *)
(* ftr_lint analyzer tests: one positive + one negative fixture per rule,
   the suppression directives, the baseline round-trip, and finally the
   analyzer applied to the real tree (which must be clean modulo the
   committed baseline). Fixtures are linted from strings via
   [Driver.lint_string], so each test is hermetic. *)

module Finding = Ftr_lint.Finding
module Driver = Ftr_lint.Driver
module Baseline = Ftr_lint.Baseline

(* Rule ids of the surviving findings for [source] linted as [file]. *)
let rules_of ?(file = "lib/fixture/fixture.ml") source =
  List.map (fun ((f : Finding.t), _) -> Finding.rule_id f.rule) (Driver.lint_string ~file source)

let check_rules name expected ?file source =
  Alcotest.(check (list string)) name expected (rules_of ?file source)

(* R1: nondeterminism sources *)

let test_r1 () =
  check_rules "Unix.gettimeofday fires" [ "R1" ] "let t = Unix.gettimeofday ()\n";
  check_rules "Random.int fires" [ "R1" ] "let r = Random.int 10\n";
  check_rules "Sys.time fires" [ "R1" ] "let t = Sys.time ()\n";
  check_rules "seeded rng is fine" [] "let r rng = Ftr_prng.Rng.int rng 10\n";
  check_rules "clock seam file is allowlisted" [] ~file:"lib/exec/clock.ml"
    "let default () = Unix.gettimeofday ()\n"

(* R2: polymorphic comparison *)

let test_r2 () =
  check_rules "bare compare fires" [ "R2" ] "let sort a = Array.sort compare a\n";
  check_rules "poly = on tuple fires" [ "R2" ] "let f a = a = (1, 2)\n";
  check_rules "poly <> on string literal fires" [ "R2" ] "let f a = a <> \"x\"\n";
  check_rules "poly = on constructor payload fires" [ "R2" ] "let f a = a = Some 3\n";
  check_rules "typed comparator is fine" [] "let sort a = Array.sort Int.compare a\n";
  check_rules "poly = on bare idents is fine (type unknown)" [] "let f a b = a = b\n";
  check_rules "poly = against None is fine (immediate)" [] "let f a = a = None\n";
  check_rules "punned record field is fine" []
    "type t = { compare : int -> int -> int }\nlet make ~compare = { compare }\n"

(* R3: unordered iteration in output paths *)

let test_r3 () =
  check_rules "Hashtbl.iter inside emit_* fires" [ "R3" ]
    "let emit_rows tbl = Hashtbl.iter (fun k _ -> print_string k) tbl\n";
  check_rules "Hashtbl.fold inside to_json fires" [ "R3" ]
    "let to_json tbl = Hashtbl.fold (fun k _ acc -> k :: acc) tbl []\n";
  check_rules "iteration outside output paths is fine" []
    "let total tbl = Hashtbl.fold (fun _ v acc -> acc + v) tbl 0\n";
  check_rules "visibly sorted nearby is fine" []
    "let emit_rows tbl = List.sort String.compare (Hashtbl.fold (fun k _ acc -> k :: acc) tbl [])\n"

(* R5: hot-path allocation *)

let hot_tag = "(* " ^ "ftr-lint: hot -- fixture *)\n"

let test_r5 () =
  check_rules "List.mem in a hot module fires" [ "R5" ]
    (hot_tag ^ "let f x xs = List.mem x xs\n");
  check_rules "@ in a hot module fires" [ "R5" ] (hot_tag ^ "let f xs ys = xs @ ys\n");
  check_rules "same code without the tag is fine" [] "let f x xs = List.mem x xs\n";
  check_rules "arrays in a hot module are fine" []
    (hot_tag ^ "let f a = Array.unsafe_get a 0\n")

(* Suppression directives *)

let disable r = "(* " ^ "ftr-lint: disable " ^ r ^ " -- fixture justification *)"

let test_suppression () =
  check_rules "same-line disable" [] ("let t = Unix.gettimeofday () " ^ disable "R1" ^ "\n");
  check_rules "line-above disable" [] (disable "R1" ^ "\nlet t = Unix.gettimeofday ()\n");
  check_rules "disable of another rule does not apply" [ "R1" ]
    (disable "R2" ^ "\nlet t = Unix.gettimeofday ()\n");
  check_rules "multi-rule disable" []
    (disable "R1 R2" ^ "\nlet t = compare (Unix.gettimeofday ()) 0.0\n");
  check_rules "disable all" [] (disable "all" ^ "\nlet t = Unix.gettimeofday ()\n");
  check_rules "file-level disable" []
    ("(* " ^ "ftr-lint: disable-file R1 -- fixture *)\n\nlet a = 1\nlet t = Unix.gettimeofday ()\n");
  check_rules "suppression does not leak to later lines" [ "R1" ]
    (disable "R1" ^ "\nlet a = 1\nlet t = Unix.gettimeofday ()\n")

(* Baseline round-trip *)

let test_baseline () =
  let source = "let t = Unix.gettimeofday ()\nlet u = compare 1 2\n" in
  let findings = Driver.lint_string ~file:"lib/fixture/fixture.ml" source in
  Alcotest.(check int) "two findings" 2 (List.length findings);
  let entries =
    List.map (fun (f, line) -> Baseline.entry_of_finding ~source_line:line f) findings
  in
  let path = Filename.temp_file "ftr_lint_test" ".baseline" in
  Baseline.save path entries;
  let reloaded = Baseline.load path in
  Sys.remove path;
  Alcotest.(check int) "round-trip preserves entries" (List.length entries)
    (List.length reloaded);
  let fresh, baselined, stale = Baseline.apply reloaded findings in
  Alcotest.(check int) "all findings absorbed" 0 (List.length fresh);
  Alcotest.(check int) "both baselined" 2 baselined;
  Alcotest.(check int) "no stale entries" 0 stale;
  (* An entry is keyed by line *text*: touching the flagged line retires
     it, touching other lines does not. *)
  let moved = "let zero = 0\n\nlet t = Unix.gettimeofday ()\nlet u = compare 1 2\n" in
  let fresh, _, stale = Baseline.apply reloaded (Driver.lint_string ~file:"lib/fixture/fixture.ml" moved) in
  Alcotest.(check int) "line moves keep the baseline valid" 0 (List.length fresh);
  Alcotest.(check int) "line moves leave nothing stale" 0 stale;
  let edited = "let t = Unix.gettimeofday () |> ignore\nlet u = compare 1 2\n" in
  let fresh, _, stale = Baseline.apply reloaded (Driver.lint_string ~file:"lib/fixture/fixture.ml" edited) in
  Alcotest.(check int) "editing the flagged line retires the entry" 1 (List.length fresh);
  Alcotest.(check int) "retired entry reported stale" 1 stale

(* A baseline line that does not parse is refused with its path:line —
   here a leftover entry for the retired R4 and a line with no tab
   field — while comments and blank lines stay accepted; [Driver.run]
   turns the refusal into exit 2. *)
let test_baseline_malformed () =
  let path = Filename.temp_file "ftr_lint_bad" ".baseline" in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  let write lines =
    Out_channel.with_open_bin path (fun oc -> output_string oc (String.concat "\n" lines))
  in
  let refused lines expected_line =
    write lines;
    match Baseline.load path with
    | _ -> Alcotest.failf "line %d was accepted" expected_line
    | exception Baseline.Malformed why ->
        Alcotest.(check bool) "names path:line" true
          (Option.is_some
             (Ftr_lint.Suppress.find_sub why (Printf.sprintf "%s:%d:" path expected_line)))
  in
  let good = "syn:R2\tlib/a.ml\tlet u = compare 1 2" in
  write [ "# comment"; ""; good; "" ];
  Alcotest.(check int) "comments and blank lines accepted" 1 (List.length (Baseline.load path));
  refused [ "# comment"; good; "syn:R4\tlib/b.ml\tFtr_obs.Metrics.incr \"x\"" ] 3;
  refused [ "syn:R2 lib/a.ml no tabs" ] 1;
  Alcotest.(check int) "Driver.run exits 2" 2
    (Driver.run ~baseline:path ~quiet:true ~dirs:[ path ] ())

(* Self-application: the committed tree is clean modulo lint.baseline.
   Tests run from _build/default/test; walk up to the build context root
   (the nearest ancestor holding dune-project), where the dune rule's
   source_tree deps materialise lib/, bin/ and bench/. *)

let find_root () =
  let rec up d =
    if Sys.file_exists (Filename.concat d "dune-project") then Some d
    else
      let parent = Filename.dirname d in
      if String.equal parent d then None else up parent
  in
  up (Sys.getcwd ())

let test_self_application () =
  match find_root () with
  | None -> Alcotest.fail "no dune-project above the test's working directory"
  | Some root ->
      let dir d = Filename.concat root d in
      let all =
        List.concat_map Driver.lint_file (Driver.find_sources [ dir "lib"; dir "bin"; dir "bench" ])
      in
      (* Strip the root prefix so finding keys match the committed
         baseline, which uses repo-relative paths. *)
      let rel (f : Finding.t) =
        let p = String.length root + 1 in
        { f with file = String.sub f.file p (String.length f.file - p) }
      in
      let all = List.map (fun (f, line) -> (rel f, line)) all in
      let entries = Baseline.load (Filename.concat root "lint.baseline") in
      let fresh, _, stale = Baseline.apply entries all in
      Alcotest.(check (list string))
        "no non-baselined findings in the tree"
        []
        (List.map (fun (f, _) -> Finding.to_string f) fresh);
      Alcotest.(check int) "no stale baseline entries" 0 stale

(* Report formatting *)

let test_reporting () =
  match Driver.lint_string ~file:"lib/x/y.ml" "let t = Sys.time ()\n" with
  | [ (f, line) ] ->
      Alcotest.(check string) "source line captured" "let t = Sys.time ()" line;
      Alcotest.(check string)
        "to_string shape" "lib/x/y.ml:1:8: R1 nondeterminism-source"
        (String.sub (Finding.to_string f) 0 (String.length "lib/x/y.ml:1:8: R1 nondeterminism-source"));
      let json = Finding.to_json f in
      Alcotest.(check bool) "json carries the rule id" true
        (Option.is_some (Ftr_lint.Suppress.find_sub json {|"rule":"R1"|}))
  | fs -> Alcotest.failf "expected exactly one finding, got %d" (List.length fs)

let () =
  Alcotest.run "lint"
    [
      ( "rules",
        [
          Alcotest.test_case "R1 nondeterminism-source" `Quick test_r1;
          Alcotest.test_case "R2 polymorphic-comparison" `Quick test_r2;
          Alcotest.test_case "R3 unordered-iteration" `Quick test_r3;
          Alcotest.test_case "R5 hot-path-allocation" `Quick test_r5;
        ] );
      ( "machinery",
        [
          Alcotest.test_case "suppressions" `Quick test_suppression;
          Alcotest.test_case "baseline round-trip" `Quick test_baseline;
          Alcotest.test_case "baseline refuses malformed lines" `Quick test_baseline_malformed;
          Alcotest.test_case "reporting" `Quick test_reporting;
        ] );
      ("self", [ Alcotest.test_case "tree is clean" `Quick test_self_application ]);
    ]
