(* Orchestration for the flow stage: load the .cmt corpus and fan the
   per-unit analysis out over the repo's own deterministic domain pool
   (Ftr_exec.Pool — dogfooding: merged findings are byte-identical
   across --jobs 1/2/4 and FTR_EXEC_SEQ=1 because results come back in
   unit-index order and the per-unit analysis is pure). Incremental
   reuse is dune's: the @lint rules rerun only when a .cmt changed.

   D3a (constructor coverage) is a whole-corpus property: units only
   contribute facts, and the coordinator merges them here, then applies
   suppressions at the declaration site. *)

type unit_result = { ur_findings : (Finding.t * string) list; ur_d3 : Flow_rules.d3 }

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

(* The surviving findings with their baseline key text, sorted, and
   the number of units analyzed. *)
let analyze ?jobs ~root ~dirs () =
  let units = Array.of_list (Cmt_loader.load_dirs ~root dirs) in
  let per_unit =
    Array.to_list
      (Ftr_exec.Pool.map ?jobs ~count:(Array.length units) (fun i -> analyze_one ~root units.(i)))
  in
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
  (all, Array.length units)
