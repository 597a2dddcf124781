(* ftr_lint: the project static analyzer (docs/LINTING.md). Wired into
   `dune build @lint` alongside the runtime sanitizer battery; the typed
   interprocedural rules T1-T6 and the flow-sensitive rules D1, D2, D4 live
   in lib/lint.

     ftr_lint [DIR ...] [--stage typed|flow|all] [--jobs N]
              [--profile default|test]
              [--baseline FILE] [--update-baseline] [--write-baseline FILE]
              [--json FILE] [--timings] [--quiet]

   Both stages read the .cmt files a prior `dune build` produced (under
   the scanned directories in a build context, or under _build/default
   from a checkout). The flow stage fans per-unit analysis out over
   Ftr_exec.Pool (--jobs, FTR_EXEC_SEQ honoured). The typed stage also
   reads test/'s .cmt files, only so that T6 can say when test/ alone
   names an export.

   Exit status: 0 clean (modulo baseline), 1 findings, 2 usage or parse
   error (including a baseline line that does not parse). *)

let () =
  let dirs = ref [] in
  let baseline = ref None in
  let write_baseline = ref None in
  let update_baseline = ref false in
  let json = ref None in
  let quiet = ref false in
  let timings = ref false in
  let jobs = ref None in
  let profile_test = ref false in
  let stages = ref Ftr_lint.Finding.all_stages in
  let usage = "usage: ftr_lint [DIR ...] [options]" in
  let set_stage = function
    | "typed" -> stages := [ Ftr_lint.Finding.Typed ]
    | "flow" -> stages := [ Ftr_lint.Finding.Flow ]
    | "all" -> stages := Ftr_lint.Finding.all_stages
    | s ->
        Printf.eprintf "ftr_lint: unknown stage %S (expected typed, flow or all)\n%s\n" s usage;
        exit 2
  in
  let set_profile = function
    | "default" -> profile_test := false
    | "test" -> profile_test := true
    | s ->
        Printf.eprintf "ftr_lint: unknown profile %S (expected default or test)\n%s\n" s usage;
        exit 2
  in
  let spec =
    [
      ( "--stage",
        Arg.String set_stage,
        "STAGE run `typed` (T1-T6), `flow` (D1, D2, D4) or `all` (default)" );
      ( "--jobs",
        Arg.Int (fun n -> jobs := Some n),
        "N flow-stage worker domains (default: pool default; FTR_EXEC_SEQ=1 forces sequential)"
      );
      ( "--profile",
        Arg.String set_profile,
        "PROFILE `default`, or `test` (T2 tolerated — tests drive clocks and randomness)" );
      ( "--baseline",
        Arg.String (fun p -> baseline := Some p),
        "FILE tolerate the findings recorded in FILE (see docs/LINTING.md)" );
      ( "--update-baseline",
        Arg.Set update_baseline,
        " regenerate the --baseline file from current findings of the selected stages" );
      ( "--write-baseline",
        Arg.String (fun p -> write_baseline := Some p),
        "FILE record current findings of the selected stages into FILE and exit 0" );
      ("--json", Arg.String (fun p -> json := Some p), "FILE also write a JSON report to FILE");
      ( "--timings",
        Arg.Set timings,
        " include per-stage wall time in the JSON report (off by default: lint.json stays \
         byte-identical run to run)" );
      ("--quiet", Arg.Set quiet, " print only the summary line, not each finding");
    ]
  in
  Arg.parse spec (fun d -> dirs := d :: !dirs) usage;
  let dirs = match List.rev !dirs with [] -> [ "lib"; "bin"; "bench"; "examples" ] | l -> l in
  let write_baseline =
    match (!write_baseline, !update_baseline) with
    | Some p, _ -> Some p (* explicit target wins *)
    | None, true -> Some (Option.value ~default:"lint.baseline" !baseline)
    | None, false -> None
  in
  exit
    (Ftr_lint.Driver.run ?baseline:!baseline ?write_baseline ?json:!json ~quiet:!quiet
       ~stages:!stages ?jobs:!jobs ~profile_test:!profile_test
       ~timings:!timings ~dirs ())
