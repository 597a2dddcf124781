(* Orchestration for the typed stage: load the .cmt corpus, scan
   sources for directives (suppress.ml — [hot] opts a module into T4),
   run the rules, drop suppressed findings and pair the survivors with
   their source line text for the baseline. The source helpers here are
   shared with the flow stage (flow_driver.ml). *)

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* A finding's [file] is build-relative (it comes from the cmt's
   locations); the checkout source is preferred, the copy under
   [_build/default] is the fallback for odd invocation directories. *)
let source_path ~root file =
  let direct = Filename.concat root file in
  if Sys.file_exists direct then Some direct
  else
    let copied = Filename.concat root (Filename.concat "_build/default" file) in
    if Sys.file_exists copied then Some copied else None

type source_info = { sup : Suppress.t; lines : string array }

let load_source ~root file =
  match source_path ~root file with
  | None -> None
  | Some path ->
      let text = read_file path in
      Some { sup = Suppress.scan text; lines = Array.of_list (String.split_on_char '\n' text) }

(* Trimmed text of source line [l] (the baseline key), or "" when the
   source is unavailable. *)
let line_text (si : source_info option) l =
  match si with
  | Some { lines; _ } when l >= 1 && l <= Array.length lines -> String.trim lines.(l - 1)
  | _ -> ""

(* Run T1-T6 over every compilation unit found under [dirs] (resolved
   against [root]); returns surviving findings with their baseline key
   text, sorted. [units] and the callgraph are also returned so tests
   can assert on reachability directly. Unless [dirs] holds test/, its
   units are read too, only for what they name: an export only they
   use is on T6's review list, not a finding. [exported] narrows the
   units whose exports T6 judges. *)
let analyze ?exported ~root ~dirs () =
  (* The corpus is some 90 MB of Typedtrees that stay live to the end,
     so at the default overhead most major GC work re-marks them; a
     larger overhead leaves the peak heap about where it was. *)
  let gc = Gc.get () in
  Gc.set { gc with space_overhead = 1000 };
  Fun.protect ~finally:(fun () -> Gc.set gc) @@ fun () ->
  (* One parallel read for both sets. *)
  let corpus = Cmt_loader.cmt_paths ~root dirs in
  let observers = Cmt_loader.cmt_paths ~root (if List.mem "test" dirs then [] else [ "test" ]) in
  let units, observers =
    List.partition
      (fun (u : Cmt_loader.unit_info) -> List.mem u.cmt_path corpus)
      (Cmt_loader.load_paths (corpus @ observers))
  in
  let units = Cmt_loader.dedup units in
  let sources = Hashtbl.create 64 in
  let source_for file =
    match Hashtbl.find_opt sources file with
    | Some s -> s
    | None ->
        let s = load_source ~root file in
        Hashtbl.add sources file s;
        s
  in
  let hot_files =
    List.filter_map
      (fun (u : Cmt_loader.unit_info) ->
        match source_for u.source with
        | Some { sup; _ } when Suppress.hot sup -> Some u.source
        | _ -> None)
      units
  in
  let state, findings = Typed_rules.run ?exported ~observers ~hot_files units in
  let kept =
    List.filter_map
      (fun (f : Finding.t) ->
        let si = source_for f.file in
        match si with
        | Some { sup; _ } when Suppress.suppressed sup ~line:f.line f.rule -> None
        | _ -> Some (f, line_text si f.line))
      findings
  in
  (state, kept)
