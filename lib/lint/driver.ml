(* Stage orchestration, baseline application and reporting: [run] is
   the CLI entry point wired into `dune build @lint`.

   Two stages share one finding stream: the typed interprocedural rules
   (T1-T6, a call-graph analysis over the .cmt corpus —
   typed_rules.ml) and the flow-sensitive rules (D1, D2, D4 —
   flow_rules.ml). [run] selects stages, merges and sorts their
   findings, then applies the shared baseline. *)

(* [timings] is opt-in (the --timings flag): wall time varies run to
   run, and @lint-report's lint.json must stay byte-identical under
   --force. The flow stage's unit count is deterministic, so it always
   appears when that stage ran. *)
let write_json_report path ~stages ~files ~fresh ~baselined ~stale ~flow_units ~timings =
  let oc = open_out_bin path in
  Printf.fprintf oc
    {|{"tool":"ftr_lint","analyzer_version":"%s","stages":[%s],"files":%d,"baselined":%d,"stale_baseline":%d,|}
    Finding.analyzer_version
    (String.concat "," (List.map (fun s -> "\"" ^ Finding.stage_id s ^ "\"") stages))
    files baselined stale;
  Option.iter (Printf.fprintf oc {|"flow_units":%d,|}) flow_units;
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
   error (a malformed baseline included; [run] adds an unreadable
   .cmt/.cmti). [stages] selects which analyses run; findings from all
   of them are merged into one sorted stream before the baseline
   applies.
   [write_baseline] regenerates the baseline file mechanically from the
   current findings of the *selected* stages — entries belonging to
   unselected stages are carried over from the existing file untouched,
   so `--stage typed --update-baseline` cannot eat flow entries.

   [profile_test] is the relaxed test profile: T2 findings are dropped
   (tests drive wall clocks and randomness freely), everything else is
   enforced. [jobs] threads through to the flow stage's pool fan-out. *)
let run_stages ?baseline ?write_baseline ?json ?(quiet = false)
    ?(stages = Finding.all_stages) ?jobs ?(profile_test = false)
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
        let t0 = Ftr_obs.Span.now () in
        let r = f () in
        stage_seconds := (stage, Ftr_obs.Span.elapsed t0) :: !stage_seconds;
        r
      in
      let typed_state, typed =
        if not (List.mem Finding.Typed stages) then (None, [])
        else
          timed Finding.Typed (fun () ->
              let state, found = Typed_driver.analyze ~root:"." ~dirs () in
              (Some state, found))
      in
      let flow_units, flow =
        if not (List.mem Finding.Flow stages) then (None, [])
        else
          timed Finding.Flow (fun () ->
              let found, units = Flow_driver.analyze ?jobs ~root:"." ~dirs () in
              (Some units, found))
      in
      let profile_drop (f : Finding.t) =
        profile_test && match f.rule with Finding.T2 -> true | _ -> false
      in
      let all =
        List.sort
          (fun ((a : Finding.t), _) ((b : Finding.t), _) -> Finding.compare_findings a b)
          (List.filter (fun (f, _) -> not (profile_drop f)) (typed @ flow))
      in
      let files =
        match (typed_state, flow_units) with
        | Some s, _ -> Array.length s.Typed_rules.units
        | None, Some n -> n
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
             entry is not "stale" during a flow-only run that cannot
             rediscover it. *)
          let entries = List.filter (fun e -> List.mem (Baseline.entry_stage e) stages) loaded in
          let fresh, baselined, stale = Baseline.apply entries all in
          (match json with
          | Some path ->
              write_json_report path ~stages ~files ~fresh ~baselined ~stale ~flow_units
                ~timings:(if timings then Some (List.rev !stage_seconds) else None)
          | None -> ());
          if not quiet then List.iter (fun (f, _) -> print_endline (Finding.to_string f)) fresh;
          if stale > 0 then
            Printf.eprintf
              "ftr_lint: %d stale baseline entr%s matched nothing (regenerate with \
               --update-baseline)\n"
              stale
              (if stale = 1 then "y" else "ies");
          Option.iter (Printf.printf "ftr_lint: flow stage %d unit(s)\n") flow_units;
          Printf.printf "ftr_lint: %d file(s), %d finding(s), %d baselined\n" files
            (List.length fresh) baselined;
          (match fresh with [] -> 0 | _ -> 1))

let run ?baseline ?write_baseline ?json ?quiet ?stages ?jobs ?profile_test ?timings ~dirs () =
  try
    run_stages ?baseline ?write_baseline ?json ?quiet ?stages ?jobs ?profile_test ?timings ~dirs
      ()
  with Cmt_loader.Unreadable (path, why) ->
    Printf.eprintf "ftr_lint: cannot read %s: %s\n" path why;
    2
