(* Orchestration for the flow stage: load the .cmt corpus, fan the
   per-unit analysis out over the repo's own deterministic domain pool
   (Ftr_exec.Pool — dogfooding: merged findings are byte-identical
   across --jobs 1/2/4 and FTR_EXEC_SEQ=1 because results come back in
   unit-index order and the per-unit analysis is pure), and serve
   unchanged units from an incremental cache.

   Cache entries are keyed by the digest of the unit's .cmt file plus
   the analyzer version: the cmt embeds the source digest and the
   import digests, so editing the source (including its suppression
   comments — they ride in the source digest) or a dependency
   invalidates the entry on the next build. Entries store the
   post-suppression findings with their baseline line text plus the
   unit's D3 protocol facts, so a fully warm run re-analyzes zero units
   and still reproduces the exact finding stream.

   D3a (constructor coverage) is a whole-corpus property: units only
   contribute facts, and the coordinator merges them here — cached and
   fresh units alike — then applies suppressions at the declaration
   site. *)

type stats = {
  fl_units : int;
  fl_analyzed : int; (* analyzed this run *)
  fl_cached : int; (* served from the incremental cache *)
}

type unit_result = { ur_findings : (Finding.t * string) list; ur_d3 : Flow_rules.d3 }

(* ------------------------------------------------------------------ *)
(* Cache serialisation (text, %S-escaped fields, tab-separated)        *)
(* ------------------------------------------------------------------ *)

let cache_file dir (u : Cmt_loader.unit_info) = Filename.concat dir (u.modname ^ ".flow")

let esc s = Printf.sprintf "%S" s
let unesc s = Scanf.sscanf s "%S%!" (fun x -> x)

let write_entry dir u ~digest (r : unit_result) =
  (try if not (Sys.file_exists dir) then Sys.mkdir dir 0o755 with Sys_error _ -> ());
  let oc = open_out_bin (cache_file dir u) in
  Printf.fprintf oc "ftr_lint-flow\t%s\t%s\n" Finding.analyzer_version digest;
  List.iter
    (fun ((f : Finding.t), src) ->
      Printf.fprintf oc "F\t%s\t%d\t%d\t%s\t%s\t%s\n" f.file f.line f.col
        (Finding.rule_id f.rule) (esc f.message) (esc src))
    r.ur_findings;
  List.iter
    (fun (name, (l : Cfg.loc)) ->
      Printf.fprintf oc "C\t%s\t%s\t%d\t%d\n" name l.Cfg.l_file l.Cfg.l_line l.Cfg.l_col)
    r.ur_d3.Flow_rules.d3_ctors;
  List.iter (fun name -> Printf.fprintf oc "E\t%s\n" name) r.ur_d3.Flow_rules.d3_explicit;
  List.iter
    (fun (l : Cfg.loc) ->
      Printf.fprintf oc "W\t%s\t%d\t%d\n" l.Cfg.l_file l.Cfg.l_line l.Cfg.l_col)
    r.ur_d3.Flow_rules.d3_catchall;
  close_out oc

let read_entry dir u ~digest =
  let path = cache_file dir u in
  if not (Sys.file_exists path) then None
  else
    match String.split_on_char '\n' (Typed_driver.read_file path) with
    | header :: rest -> (
        match String.split_on_char '\t' header with
        | [ "ftr_lint-flow"; v; d ]
          when String.equal v Finding.analyzer_version && String.equal d digest -> (
            try
              let findings = ref [] and ctors = ref [] and expl = ref [] and wild = ref [] in
              List.iter
                (fun line ->
                  match String.split_on_char '\t' line with
                  | [ "F"; file; l; c; rule; msg; src ] ->
                      let rule =
                        match Finding.rule_of_id rule with
                        | Some r -> r
                        | None -> raise Exit
                      in
                      findings :=
                        ( {
                            Finding.file;
                            line = int_of_string l;
                            col = int_of_string c;
                            rule;
                            message = unesc msg;
                          },
                          unesc src )
                        :: !findings
                  | [ "C"; name; file; l; c ] ->
                      ctors :=
                        ( name,
                          {
                            Cfg.l_file = file;
                            l_line = int_of_string l;
                            l_col = int_of_string c;
                          } )
                        :: !ctors
                  | [ "E"; name ] -> expl := name :: !expl
                  | [ "W"; file; l; c ] ->
                      wild :=
                        { Cfg.l_file = file; l_line = int_of_string l; l_col = int_of_string c }
                        :: !wild
                  | [ "" ] | [] -> ()
                  | _ -> raise Exit)
                rest;
              Some
                {
                  ur_findings = List.rev !findings;
                  ur_d3 =
                    {
                      Flow_rules.d3_ctors = List.rev !ctors;
                      d3_explicit = List.rev !expl;
                      d3_catchall = List.rev !wild;
                    };
                }
            with Exit | Failure _ | Scanf.Scan_failure _ -> None)
        | _ -> None)
    | [] -> None

(* ------------------------------------------------------------------ *)
(* Analysis                                                            *)
(* ------------------------------------------------------------------ *)

let analyze_one ~root (u : Cmt_loader.unit_info) =
  let src = Typed_driver.load_source ~root u.source in
  let hot = match src with Some { Typed_driver.sup; _ } -> Suppress.hot sup | None -> false in
  let found, d3 = Flow_rules.analyze_unit ~hot u in
  let kept =
    List.filter_map
      (fun (f : Finding.t) ->
        let si =
          if String.equal f.file u.source then src else Typed_driver.load_source ~root f.file
        in
        match si with
        | Some { Typed_driver.sup; _ } when Suppress.suppressed sup ~line:f.line f.rule -> None
        | _ -> Some (f, Typed_driver.line_text si f.line))
      found
  in
  { ur_findings = kept; ur_d3 = d3 }

let analyze ?jobs ?cache_dir ~root ~dirs () =
  let units = Array.of_list (Cmt_loader.load_dirs ~root dirs) in
  let n = Array.length units in
  let digests = Array.map (fun (u : Cmt_loader.unit_info) -> Digest.to_hex (Digest.file u.cmt_path)) units in
  let results : unit_result option array = Array.make n None in
  (match cache_dir with
  | Some dir ->
      Array.iteri (fun i u -> results.(i) <- read_entry dir u ~digest:digests.(i)) units
  | None -> ());
  let misses =
    Array.to_list (Array.mapi (fun i r -> (i, r)) results)
    |> List.filter_map (fun (i, r) -> match r with None -> Some i | Some _ -> None)
  in
  let miss_arr = Array.of_list misses in
  if Array.length miss_arr > 0 then begin
    (* Fan out over the repo's own pool; results land in index order,
       so the merged stream is independent of worker scheduling. *)
    let fresh =
      Ftr_exec.Pool.map ?jobs ~count:(Array.length miss_arr) (fun k ->
          analyze_one ~root units.(miss_arr.(k)))
    in
    Array.iteri
      (fun k r ->
        let i = miss_arr.(k) in
        results.(i) <- Some r;
        match cache_dir with
        | Some dir -> write_entry dir units.(i) ~digest:digests.(i) r
        | None -> ())
      fresh
  end;
  let per_unit = Array.to_list (Array.map Option.get results) in
  let unit_findings = List.concat_map (fun r -> r.ur_findings) per_unit in
  let d3a =
    Flow_rules.d3_findings (List.map (fun r -> r.ur_d3) per_unit)
    |> List.filter_map (fun (f : Finding.t) ->
           let si = Typed_driver.load_source ~root f.file in
           match si with
           | Some { Typed_driver.sup; _ } when Suppress.suppressed sup ~line:f.line f.rule -> None
           | _ -> Some (f, Typed_driver.line_text si f.line))
  in
  let all =
    List.sort
      (fun ((a : Finding.t), _) ((b : Finding.t), _) -> Finding.compare_findings a b)
      (unit_findings @ d3a)
  in
  let stats =
    {
      fl_units = n;
      fl_analyzed = Array.length miss_arr;
      fl_cached = n - Array.length miss_arr;
    }
  in
  (all, stats)
