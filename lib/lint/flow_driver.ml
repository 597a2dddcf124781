(* Orchestration for the flow stage: load the .cmt corpus and fan the
   per-unit analysis out over the repo's own deterministic domain pool
   (Ftr_exec.Pool — dogfooding: merged findings are byte-identical
   across --jobs 1/2/4 and FTR_EXEC_SEQ=1 because results come back in
   unit-index order and the per-unit analysis is pure). Incremental
   reuse is dune's: the @lint rules rerun only when a .cmt changed. *)

let analyze_one ~root (u : Cmt_loader.unit_info) =
  let src = Typed_driver.load_source ~root u.source in
  let hot = match src with Some { Typed_driver.sup; _ } -> Suppress.hot sup | None -> false in
  List.filter_map
    (fun (f : Finding.t) ->
      let si =
        if String.equal f.file u.source then src else Typed_driver.load_source ~root f.file
      in
      match si with
      | Some { Typed_driver.sup; _ } when Suppress.suppressed sup ~line:f.line f.rule -> None
      | _ -> Some (f, Typed_driver.line_text si f.line))
    (Flow_rules.analyze_unit ~hot u)

(* The surviving findings with their baseline key text, sorted, and
   the number of units analyzed. *)
let analyze ?jobs ~root ~dirs () =
  let units = Array.of_list (Cmt_loader.load_dirs ~root dirs) in
  let per_unit =
    Ftr_exec.Pool.map ?jobs ~count:(Array.length units) (fun i -> analyze_one ~root units.(i))
  in
  let all =
    List.sort
      (fun ((a : Finding.t), _) ((b : Finding.t), _) -> Finding.compare_findings a b)
      (List.concat (Array.to_list per_unit))
  in
  (all, Array.length units)
