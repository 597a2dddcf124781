(* Locating and loading the .cmt artifacts dune already produces.

   Dune compiles every module with -bin-annot, so a plain [dune build]
   leaves one Typedtree per compilation unit under
   [.<lib>.objs/byte/<unit>.cmt] (libraries) or
   [.<exe>.eobjs/byte/<unit>.cmt] (executables), next to the copied
   sources in [_build/default]. The typed lint stage runs from the build
   context (the @lint-typed rule), where those directories sit directly
   under the scanned [lib]/[bin]/[bench] trees; when invoked from a
   plain checkout instead, [load_dirs] falls back to the same directory
   under [_build/default] so [dune exec bin/ftr_lint.exe -- --typed]
   works from the repo root too.

   Only implementation units with a real [.ml] source are kept: dune's
   generated wrapper modules ([ftr_core.ml-gen]) carry nothing but
   module aliases. A unit's .cmti, when it has an .mli, sits next to its
   .cmt; only T6 reads it. *)

type unit_info = {
  modname : string; (* compilation unit name, e.g. "Ftr_core__Route" *)
  source : string; (* build-relative source path, e.g. "lib/core/route.ml" *)
  structure : Typedtree.structure;
  cmt_path : string;
}

let is_objs_byte_dir path =
  let base = Filename.basename path in
  String.equal base "byte"
  &&
  let parent = Filename.basename (Filename.dirname path) in
  String.length parent > 0
  && parent.[0] = '.'
  && (Filename.check_suffix parent ".objs" || Filename.check_suffix parent ".eobjs")

(* Every .cmt under [dir], depth-first with children in sorted order, so
   unit lists (and therefore node ids, reports and witness chains) are
   deterministic. The walk descends into dot-directories: that is where
   dune keeps the artifacts. An entry that vanishes between its
   directory's listing and its visit (dune replacing a stale artifact
   while the lint rule runs) is skipped. *)
let find_cmts dir =
  let acc = ref [] in
  let rec walk path =
    match Sys.is_directory path with
    | exception Sys_error _ -> ()
    | true ->
        (match Sys.readdir path with exception Sys_error _ -> [||] | names -> names)
        |> Array.to_list |> List.sort String.compare
        |> List.iter (fun name ->
               (* Fixture units violate rules on purpose; they only load
                  when named directly. *)
               if not (String.equal name "_build" || String.equal name "lint_fixture") then
                 walk (Filename.concat path name))
    | false ->
        if Filename.check_suffix path ".cmt" && is_objs_byte_dir (Filename.dirname path) then
          acc := path :: !acc
  in
  walk dir;
  List.rev !acc

(* A .cmt or .cmti that exists but does not read back (truncated, or
   from another compiler): the run stops with its path rather than
   judge a corpus that silently lacks a unit or an interface. *)
exception Unreadable of string * string

let read path =
  match Cmt_format.read_cmt path with
  | cmt -> cmt
  | exception e -> raise (Unreadable (path, Printexc.to_string e))

(* The signature of the unit's .mli; [None] without one. *)
let load_interface cmt_path =
  let path = Filename.remove_extension cmt_path ^ ".cmti" in
  if not (Sys.file_exists path) then None
  else
    match (read path).cmt_annots with
    | Cmt_format.Interface sg -> Some sg
    | _ -> raise (Unreadable (path, "not a complete interface"))

(* Read one cmt; [None] for wrappers, interfaces and partial units. *)
let load_cmt path =
  let cmt = read path in
  match (cmt.cmt_annots, cmt.cmt_sourcefile) with
  | Cmt_format.Implementation structure, Some source when Filename.check_suffix source ".ml" ->
      Some { modname = cmt.cmt_modname; source; structure; cmt_path = path }
  | _ -> None

(* The .cmt files under [dirs] (resolved against [root]). A directory
   with no artifacts of its own falls back to [_build/default/<dir>]. *)
let cmt_paths ~root dirs =
  List.concat_map
    (fun dir ->
      let direct = find_cmts (Filename.concat root dir) in
      if direct <> [] then direct
      else find_cmts (Filename.concat root (Filename.concat "_build/default" dir)))
    dirs

(* Read [paths] on the pool, in order: unmarshalling the Typedtrees is
   most of a lint stage's load time. *)
let load_paths paths =
  let paths = Array.of_list paths in
  Ftr_exec.Pool.map ~count:(Array.length paths) (fun i -> load_cmt paths.(i))
  |> Array.to_list |> List.filter_map Fun.id

(* Units deduplicated by module name (first wins, in sorted-path order)
   and sorted by module name. *)
let dedup units =
  let seen = Hashtbl.create 64 in
  List.filter
    (fun u ->
      (not (Hashtbl.mem seen u.modname))
      &&
      (Hashtbl.add seen u.modname ();
       true))
    units
  |> List.sort (fun a b -> String.compare a.modname b.modname)

(* Load every unit under [dirs]. *)
let load_dirs ~root dirs = dedup (load_paths (cmt_paths ~root dirs))
