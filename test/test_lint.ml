(* ftr_lint machinery tests: the suppression directives, the baseline
   round-trip and its refusals, and the report formatting. The rules
   themselves need compiled fixtures (test_lint_typed.ml,
   test_lint_flow.ml); everything here runs on directive text and
   synthetic findings, so each test is hermetic. *)

module Finding = Ftr_lint.Finding
module Driver = Ftr_lint.Driver
module Baseline = Ftr_lint.Baseline
module Suppress = Ftr_lint.Suppress

let contains s sub = Option.is_some (Suppress.find_sub s sub)

let finding ?(file = "lib/fixture/fixture.ml") ?(col = 0) rule line =
  { Finding.file; line; col; rule; message = "m" }

(* Suppression directives. The marker is spliced in so that this file's
   own text carries no directive. *)

let directive d = "(* " ^ Suppress.marker ^ " " ^ d ^ " -- fixture justification *)"

(* Does [source] suppress [rule] at [line]? *)
let suppressed source ~line rule = Suppress.suppressed (Suppress.scan source) ~line rule

let test_suppression () =
  let check name expected source ~line rule =
    Alcotest.(check bool) name expected (suppressed source ~line rule)
  in
  let below d = directive d ^ "\nlet t = 1\n" in
  check "same-line disable" true ("let t = 1 " ^ directive "disable T2" ^ "\n") ~line:1 Finding.T2;
  check "line-above disable" true (below "disable T2") ~line:2 Finding.T2;
  check "disable of another rule does not apply" false (below "disable T3") ~line:2 Finding.T2;
  check "multi-rule disable, first id" true (below "disable T2 T3") ~line:2 Finding.T2;
  check "multi-rule disable, second id" true (below "disable T2,T3") ~line:2 Finding.T3;
  check "disable all" true (below "disable all") ~line:2 Finding.D4;
  check "file-level disable" true
    (directive "disable-file D1" ^ "\n\nlet a = 1\nlet t = 2\n")
    ~line:4 Finding.D1;
  check "suppression does not leak to later lines" false
    (directive "disable T2" ^ "\nlet a = 1\nlet t = 2\n")
    ~line:3 Finding.T2;
  check "justification ends the id list" false (below "disable T2 because T3") ~line:2 Finding.T3;
  (* Retired syntactic ids are skipped, not a stop: the bench/e2e
     headers read "disable-file R1 T2". *)
  check "disable-file R1 T2 still suppresses T2" true
    (directive "disable-file R1 T2" ^ "\nlet t = 1\n")
    ~line:2 Finding.T2;
  check "retired id alone suppresses nothing" false (below "disable R5") ~line:2 Finding.T4;
  Alcotest.(check bool) "hot tag" true (Suppress.hot (Suppress.scan (directive "hot")));
  Alcotest.(check bool) "untagged" false (Suppress.hot (Suppress.scan "let t = 1\n"))

(* Baseline round-trip *)

let test_baseline () =
  let findings =
    [ (finding Finding.T2 1, "let t = Unix.gettimeofday ()"); (finding Finding.D1 2, "let u = 2") ]
  in
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
  let moved =
    List.map (fun ((f : Finding.t), text) -> ({ f with line = f.line + 2 }, text)) findings
  in
  let fresh, _, stale = Baseline.apply reloaded moved in
  Alcotest.(check int) "line moves keep the baseline valid" 0 (List.length fresh);
  Alcotest.(check int) "line moves leave nothing stale" 0 stale;
  let edited =
    List.map
      (fun ((f : Finding.t), text) ->
        (f, match f.rule with Finding.T2 -> text ^ " |> ignore" | _ -> text))
      findings
  in
  let fresh, _, stale = Baseline.apply reloaded edited in
  Alcotest.(check int) "editing the flagged line retires the entry" 1 (List.length fresh);
  Alcotest.(check int) "retired entry reported stale" 1 stale

(* A baseline line that does not parse is refused with its path:line —
   here leftover entries for retired syntactic rules (the R4 id and the
   syn: namespace), a bare id without its stage namespace, an id under
   the wrong stage and a line with no tab field — while comments and
   blank lines stay accepted; [Driver.run] turns the refusal into
   exit 2. *)
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
          (contains why (Printf.sprintf "%s:%d:" path expected_line))
  in
  let good = "typed:T3\tlib/a.ml\tlet u = compare 1. 2." in
  write [ "# comment"; ""; good; "" ];
  Alcotest.(check int) "comments and blank lines accepted" 1 (List.length (Baseline.load path));
  refused [ "# comment"; good; "syn:R4\tlib/b.ml\tFtr_obs.Metrics.incr \"x\"" ] 3;
  refused [ good; "syn:R2\tlib/a.ml\tlet u = compare 1 2" ] 2;
  refused [ "T3\tlib/a.ml\tlet u = compare 1. 2." ] 1;
  refused [ "flow:T3\tlib/a.ml\tlet u = compare 1. 2." ] 1;
  refused [ "typed:T3 lib/a.ml no tabs" ] 1;
  Alcotest.(check int) "Driver.run exits 2" 2
    (Driver.run ~baseline:path ~quiet:true ~dirs:[ path ] ())

(* Report formatting *)

let test_reporting () =
  let f = finding ~file:"lib/x/y.ml" ~col:8 Finding.T5 1 in
  Alcotest.(check string) "to_string shape"
    "lib/x/y.ml:1:8: T5 typed-unordered-iteration-in-output: m" (Finding.to_string f);
  let json = Finding.to_json f in
  Alcotest.(check bool) "json carries the rule id" true (contains json {|"rule":"T5"|});
  Alcotest.(check bool) "json carries the stage" true (contains json {|"stage":"typed"|});
  Alcotest.(check bool) "flow rules report the flow stage" true
    (contains (Finding.to_json (finding Finding.D2 1)) {|"stage":"flow"|})

let () =
  Alcotest.run "lint"
    [
      ( "machinery",
        [
          Alcotest.test_case "suppressions" `Quick test_suppression;
          Alcotest.test_case "baseline round-trip" `Quick test_baseline;
          Alcotest.test_case "baseline refuses malformed lines" `Quick test_baseline_malformed;
          Alcotest.test_case "reporting" `Quick test_reporting;
        ] );
    ]
