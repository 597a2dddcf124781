(* File discovery, stage orchestration, suppression/baseline
   application and reporting. [lint_string] is the unit-test entry point
   for the syntactic stage; [run] is the CLI entry point wired into
   `dune build @lint`.

   Three stages share one finding stream: the syntactic rules (R1-R3,
   R5, one Parsetree walk per source file), the typed interprocedural
   rules (T1-T4, a call-graph analysis over the .cmt corpus —
   typed_rules.ml) and the flow-sensitive rules (D1-D4 —
   flow_rules.ml). [run] selects stages, merges and sorts their
   findings, then applies the shared baseline. *)

let clock_seam_files = Typed_rules.clock_seam_files

let config_for file hot =
  {
    Rules.file;
    hot;
    clock_seam = List.exists (fun sfx -> Filename.check_suffix file sfx) clock_seam_files;
  }

(* Lint one compilation unit given as text. Returns each surviving
   finding paired with the trimmed text of its source line (the baseline
   key). Parse errors propagate as the parser's own exceptions. *)
let lint_string ~file source =
  let sup = Suppress.scan source in
  let lexbuf = Lexing.from_string source in
  Lexing.set_filename lexbuf file;
  let ast =
    if Filename.check_suffix file ".mli" then Rules.Signature (Parse.interface lexbuf)
    else Rules.Structure (Parse.implementation lexbuf)
  in
  let findings = Rules.run (config_for file (Suppress.hot sup)) ast in
  let lines = Array.of_list (String.split_on_char '\n' source) in
  let line_text l = if l >= 1 && l <= Array.length lines then String.trim lines.(l - 1) else "" in
  findings
  |> List.filter (fun (f : Finding.t) -> not (Suppress.suppressed sup ~line:f.line f.rule))
  |> List.map (fun (f : Finding.t) -> (f, line_text f.line))

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let lint_file path = lint_string ~file:path (read_file path)

(* Every .ml/.mli under [dirs], depth-first, children in sorted order so
   reports and baselines are themselves deterministic. [lint_fixture]
   children are skipped — those sources violate rules on purpose (the
   compiled fixture corpus under test/) — but naming such a directory
   directly as a root still scans it, which is how the fixture tests
   run. *)
let find_sources dirs =
  let rec walk acc path =
    if Sys.is_directory path then
      Sys.readdir path |> Array.to_list
      |> List.sort String.compare
      |> List.fold_left
           (fun acc name ->
             if
               String.length name = 0 || name.[0] = '.' || String.equal name "_build"
               || String.equal name "lint_fixture"
             then acc
             else walk acc (Filename.concat path name))
           acc
    else if Filename.check_suffix path ".ml" || Filename.check_suffix path ".mli" then
      path :: acc
    else acc
  in
  List.rev (List.fold_left walk [] dirs)

(* [timings] is opt-in (the --timings flag): wall time varies run to
   run, and @lint-report's lint.json must stay byte-identical under
   --force. The flow cache counters are deterministic for a fixed
   invocation, so they always appear when the flow stage ran. *)
let write_json_report path ~stages ~files ~fresh ~baselined ~stale ~flow_stats ~timings =
  let oc = open_out_bin path in
  Printf.fprintf oc
    {|{"tool":"ftr_lint","analyzer_version":"%s","stages":[%s],"files":%d,"baselined":%d,"stale_baseline":%d,|}
    Finding.analyzer_version
    (String.concat "," (List.map (fun s -> "\"" ^ Finding.stage_id s ^ "\"") stages))
    files baselined stale;
  (match flow_stats with
  | Some (s : Flow_driver.stats) ->
      Printf.fprintf oc {|"flow_units":%d,"flow_analyzed":%d,"flow_cached":%d,|}
        s.Flow_driver.fl_units s.Flow_driver.fl_analyzed s.Flow_driver.fl_cached
  | None -> ());
  (match timings with
  | Some ts ->
      Printf.fprintf oc {|"stage_seconds":{%s},|}
        (String.concat ","
           (List.map
              (fun (stage, secs) ->
                Printf.sprintf {|"%s":%.6f|} (Finding.stage_id stage) secs)
              ts))
  | None -> ());
  Printf.fprintf oc {|"findings":[%s]}|}
    (String.concat "," (List.map (fun (f, _) -> Finding.to_json f) fresh));
  output_char oc '\n';
  close_out oc

(* Exit status: 0 clean (modulo baseline), 1 findings, 2 usage/parse
   error (a malformed baseline included). [stages] selects which
   analyses run; findings from all of them are merged into one sorted
   stream before the baseline applies.
   [write_baseline] regenerates the baseline file mechanically from the
   current findings of the *selected* stages — entries belonging to
   unselected stages are carried over from the existing file untouched,
   so `--stage typed --update-baseline` cannot eat syntactic entries.

   [profile_test] is the relaxed test profile: R1 (tests drive wall
   clocks freely) and T2 (its propagation) findings are dropped,
   everything else is enforced. [jobs]/[cache_dir] thread through to
   the flow stage's pool fan-out and incremental cache. *)
let run ?baseline ?write_baseline ?json ?(quiet = false)
    ?(stages = [ Finding.Syntactic ]) ?jobs ?cache_dir ?(profile_test = false)
    ?(timings = false) ~dirs () =
  let baseline_file = match write_baseline with Some p -> Some p | None -> baseline in
  match
    ( List.filter (fun d -> not (Sys.file_exists d)) dirs,
      Option.fold ~none:[] ~some:Baseline.load baseline_file )
  with
  | missing :: _, _ ->
      Printf.eprintf "ftr_lint: no such file or directory: %s\n" missing;
      2
  | exception Baseline.Malformed why ->
      Printf.eprintf "ftr_lint: malformed baseline %s\n" why;
      2
  | [], loaded -> (
      let stage_seconds = ref [] in
      let timed stage f =
        let t0 = Ftr_exec.Clock.now () in
        let r = f () in
        stage_seconds := (stage, Ftr_exec.Clock.now () -. t0) :: !stage_seconds;
        r
      in
      let syntactic =
        if not (List.mem Finding.Syntactic stages) then []
        else
          timed Finding.Syntactic (fun () ->
              find_sources dirs
              |> List.concat_map (fun path ->
                     try lint_file path
                     with exn ->
                       Location.report_exception Format.err_formatter exn;
                       Printf.eprintf "ftr_lint: cannot parse %s\n" path;
                       exit 2))
      in
      let typed_state, typed =
        if not (List.mem Finding.Typed stages) then (None, [])
        else
          timed Finding.Typed (fun () ->
              let state, found = Typed_driver.analyze ~root:"." ~dirs in
              (Some state, found))
      in
      let flow_stats, flow =
        if not (List.mem Finding.Flow stages) then (None, [])
        else
          timed Finding.Flow (fun () ->
              let found, stats = Flow_driver.analyze ?jobs ?cache_dir ~root:"." ~dirs () in
              (Some stats, found))
      in
      let profile_drop (f : Finding.t) =
        profile_test && match f.rule with Finding.R1 | Finding.T2 -> true | _ -> false
      in
      let all =
        List.sort
          (fun ((a : Finding.t), _) ((b : Finding.t), _) -> Finding.compare_findings a b)
          (List.filter (fun (f, _) -> not (profile_drop f)) (syntactic @ typed @ flow))
      in
      let files =
        if List.mem Finding.Syntactic stages then List.length (find_sources dirs)
        else
          match (typed_state, flow_stats) with
          | Some s, _ -> Array.length s.Typed_rules.units
          | None, Some s -> s.Flow_driver.fl_units
          | None, None -> 0
      in
      match write_baseline with
      | Some path ->
          let kept =
            List.filter
              (fun e -> not (List.mem (Baseline.entry_stage e) stages))
              loaded
          in
          let entries =
            kept @ List.map (fun (f, line) -> Baseline.entry_of_finding ~source_line:line f) all
          in
          Baseline.save path entries;
          Printf.printf "ftr_lint: wrote %d baseline entr%s to %s (%d carried over)\n"
            (List.length entries)
            (if List.length entries = 1 then "y" else "ies")
            path (List.length kept);
          0
      | None ->
          (* Only entries of the selected stages participate: a typed
             entry is not "stale" during a syntactic-only run that
             cannot rediscover it. *)
          let entries = List.filter (fun e -> List.mem (Baseline.entry_stage e) stages) loaded in
          let fresh, baselined, stale = Baseline.apply entries all in
          (match json with
          | Some path ->
              write_json_report path ~stages ~files ~fresh ~baselined ~stale ~flow_stats
                ~timings:(if timings then Some (List.rev !stage_seconds) else None)
          | None -> ());
          if not quiet then List.iter (fun (f, _) -> print_endline (Finding.to_string f)) fresh;
          if stale > 0 then
            Printf.eprintf
              "ftr_lint: %d stale baseline entr%s matched nothing (regenerate with \
               --update-baseline)\n"
              stale
              (if stale = 1 then "y" else "ies");
          (match flow_stats with
          | Some s ->
              Printf.printf "ftr_lint: flow stage %d unit(s), %d analyzed, %d cached\n"
                s.Flow_driver.fl_units s.Flow_driver.fl_analyzed s.Flow_driver.fl_cached
          | None -> ());
          Printf.printf "ftr_lint: %d file(s), %d finding(s), %d baselined\n" files
            (List.length fresh) baselined;
          (match fresh with [] -> 0 | _ -> 1))
