(* Structural reasoning about instantiation types, without an Env.

   Reconstructing a full typing environment from a cmt needs the load
   path of every dependency; instead the typed stage collects the type
   declarations of every unit it loads into one table and expands
   [Tconstr] heads through it. Stdlib types are classified by name.
   The two questions the rules ask:

   - [comparison_unsafe]: would polymorphic compare/=/min at this
     instantiation misbehave — a float buried in a structure (slow,
     NaN-ordering), an arrow (raises), an abstract/opaque constructor
     (meaning changes with the representation)? (T3)

   - [mutability]: does a value of this type contain unsanctioned
     mutable state — ref cells, arrays, hashtables, buffers, mutable
     record fields — as opposed to the sanctioned seams (Atomic.t,
     Mutex.t, Domain.DLS.key, Semaphore, Condition)? (T1) *)

type decl =
  | Alias of Types.type_expr
  | Record of { fields : Types.type_expr list; has_mutable : bool }
  | Variant of Types.type_expr list (* every constructor argument type *)
  | Opaque

type table = (string, decl) Hashtbl.t

let path_parts p = String.split_on_char '.' (Path.name p)

let strip_stdlib = function "Stdlib" :: rest -> rest | p -> p

let dotted_of_path p = String.concat "." (strip_stdlib (path_parts p))

(* ------------------------------------------------------------------ *)
(* Declaration table                                                   *)
(* ------------------------------------------------------------------ *)

let decl_of_type_declaration (td : Types.type_declaration) =
  match td.type_kind with
  | Types.Type_record (lds, _) ->
      Record
        {
          fields = List.map (fun (ld : Types.label_declaration) -> ld.ld_type) lds;
          has_mutable =
            List.exists
              (fun (ld : Types.label_declaration) ->
                match ld.ld_mutable with Asttypes.Mutable -> true | Asttypes.Immutable -> false)
              lds;
        }
  | Types.Type_variant (cds, _) ->
      Variant
        (List.concat_map
           (fun (cd : Types.constructor_declaration) ->
             match cd.cd_args with
             | Types.Cstr_tuple tys -> tys
             | Types.Cstr_record lds ->
                 List.map (fun (ld : Types.label_declaration) -> ld.ld_type) lds)
           cds)
  | Types.Type_abstract -> (
      match td.type_manifest with Some ty -> Alias ty | None -> Opaque)
  | Types.Type_open -> Opaque

(* The spellings of module [subpath] of unit [modname] at a use site:
   the mangled unit ("Ftr_core__Route") and the wrapper alias spelling
   ("Ftr_core.Route"). The wrapper is everything before the last "__",
   so "Dune__exe__Paper" is "Dune__exe.Paper". *)
let module_keys ~modname subpath =
  let spell head = String.concat "." (head :: subpath) in
  let rec last_sep i =
    if i < 1 then None
    else if modname.[i] = '_' && modname.[i - 1] = '_' then Some (i - 1)
    else last_sep (i - 1)
  in
  match last_sep (String.length modname - 1) with
  | Some i ->
      let lib = String.sub modname 0 i in
      let sub = String.sub modname (i + 2) (String.length modname - i - 2) in
      [ spell (lib ^ "." ^ sub); spell modname ]
  | None -> [ spell modname ]

(* Every name a use site may carry for [name] in that module. *)
let decl_keys ~modname ~subpath name =
  List.map (fun k -> k ^ "." ^ name) (module_keys ~modname subpath)

let add_unit_decls (table : table) (u : Cmt_loader.unit_info) =
  let rec items subpath (its : Typedtree.structure_item list) =
    List.iter
      (fun (it : Typedtree.structure_item) ->
        match it.str_desc with
        | Typedtree.Tstr_type (_, tds) ->
            List.iter
              (fun (td : Typedtree.type_declaration) ->
                let d = decl_of_type_declaration td.typ_type in
                List.iter
                  (fun k -> if not (Hashtbl.mem table k) then Hashtbl.add table k d)
                  (decl_keys ~modname:u.modname ~subpath (Ident.name td.typ_id)))
              tds
        | Typedtree.Tstr_module mb -> module_binding subpath mb
        | Typedtree.Tstr_recmodule mbs -> List.iter (module_binding subpath) mbs
        | _ -> ())
      its
  and module_binding subpath (mb : Typedtree.module_binding) =
    let name = match mb.mb_name.txt with Some n -> n | None -> "_" in
    let rec of_expr (me : Typedtree.module_expr) =
      match me.mod_desc with
      | Typedtree.Tmod_structure str -> items (subpath @ [ name ]) str.str_items
      | Typedtree.Tmod_constraint (me, _, _, _) -> of_expr me
      | _ -> ()
    in
    of_expr mb.mb_expr
  in
  items [] u.structure.str_items

let build_table units =
  let table : table = Hashtbl.create 256 in
  List.iter (add_unit_decls table) units;
  table

(* ------------------------------------------------------------------ *)
(* Stdlib classification                                               *)
(* ------------------------------------------------------------------ *)

(* Atomic types polymorphic comparison handles exactly. *)
let safe_atomic =
  [ "int"; "bool"; "char"; "string"; "bytes"; "unit"; "int32"; "int64"; "nativeint" ]

(* Containers safe iff their parameters are: recurse. *)
let safe_parametric = [ "list"; "option"; "array"; "ref"; "result"; "Either.t"; "Seq.t" ]

(* Sanctioned concurrency seams: opaque, never themselves "shared
   mutable state" for T1 (their whole point is domain-safe access). *)
let sanctioned_heads =
  [
    "Atomic.t";
    "Mutex.t";
    "Condition.t";
    "Semaphore.Counting.t";
    "Semaphore.Binary.t";
    "Domain.DLS.key";
  ]

(* Stdlib mutable containers (beyond [ref]/[array]/[bytes], which are
   handled structurally). *)
let mutable_heads =
  [ "Hashtbl.t"; "Buffer.t"; "Queue.t"; "Stack.t"; "Weak.t"; "Random.State.t" ]

(* Stdlib self-aliases ([String.t] = [string], [Float.t] = [float], ...)
   so [compare] at [Float.t] is judged exactly like [compare] at
   [float]. *)
let stdlib_alias = function
  | "Int.t" -> Some "int"
  | "Bool.t" -> Some "bool"
  | "Char.t" -> Some "char"
  | "String.t" -> Some "string"
  | "Bytes.t" -> Some "bytes"
  | "Float.t" -> Some "float"
  | "Int32.t" -> Some "int32"
  | "Int64.t" -> Some "int64"
  | "Nativeint.t" -> Some "nativeint"
  | "Unit.t" -> Some "unit"
  | _ -> None

let mem_s x l = List.exists (String.equal x) l

(* [Ftr_svc.Mailbox.t] is the service's deterministic actor mailbox:
   the coordinator posts between rounds, the owning shard's worker
   drains during one, and the round barrier sequences the two, so a
   mailbox handed through [Pool] workers is a sanctioned seam, not
   shared mutable state (docs/SERVICE.md). Depending on how a .cmt
   spells the path the head can read [Mailbox.t], [Ftr_svc.Mailbox.t]
   or [Ftr_svc__Mailbox.t], so match on the trailing components. *)
let sanctioned_head head =
  mem_s head sanctioned_heads
  ||
  match List.rev (String.split_on_char '.' head) with
  | "t" :: m :: _ -> String.equal m "Mailbox" || String.ends_with ~suffix:"__Mailbox" m
  | _ -> false

(* Resolve a [Tconstr] head against the declaration table. Heads are
   spelled the way the use site's [Path] prints: a same-unit reference
   is bare ("side"), a via-alias reference is partially qualified
   ("Route.side"), a cross-unit one is fully qualified. Lookup order:
   exact key, then qualified by the using unit's module name, then a
   unique-suffix match over the table (sorted for determinism). *)
let find_decl (table : table) ~modname head =
  match Hashtbl.find_opt table head with
  | Some d -> Some d
  | None -> (
      match Hashtbl.find_opt table (modname ^ "." ^ head) with
      | Some d -> Some d
      | None ->
          let suffix = "." ^ head in
          Hashtbl.fold
            (fun k d acc ->
              if String.length k > String.length suffix
                 && String.equal (String.sub k (String.length k - String.length suffix)
                                    (String.length suffix)) suffix
              then
                match acc with
                | Some (k', _) when String.compare k' k <= 0 -> acc
                | _ -> Some (k, d)
              else acc)
            table None
          |> Option.map snd)

(* ------------------------------------------------------------------ *)
(* Traversals                                                          *)
(* ------------------------------------------------------------------ *)

let max_depth = 24

(* [comparison_unsafe table ty] is [Some reason] when polymorphic
   comparison at instantiation [ty] is flagged. [strict_float]: treat a
   bare (unnested) float as unsafe too — on for [compare]/[min]/[max]
   and [=]/[<>] (total-order and NaN-equality pitfalls; use
   Float.compare/equal), off for [<]/[<=]/[>]/[>=], which the compiler
   specialises to IEEE comparisons when the type is known. *)
let comparison_unsafe (table : table) ~modname ~strict_float ty =
  let seen = Hashtbl.create 16 in
  (* [nested] is true once we are inside a structure: a float there is
     always unsafe (boxed traversal + NaN ordering). *)
  let rec go ~nested depth ty =
    if depth > max_depth then None
    else
      match Types.get_desc ty with
      | Types.Tvar _ | Types.Tunivar _ -> None (* still polymorphic here: judge the callers *)
      | Types.Tarrow _ -> Some "a function (polymorphic comparison raises on closures)"
      | Types.Ttuple tys -> first (depth + 1) tys
      | Types.Tpoly (ty, _) -> go ~nested depth ty
      | Types.Tobject _ | Types.Tfield _ | Types.Tnil ->
          Some "an object (polymorphic comparison raises on objects)"
      | Types.Tvariant _ -> None (* polymorphic variants of safe payloads; payloads opaque here *)
      | Types.Tconstr (p, args, _) -> (
          let head = dotted_of_path p in
          let head = Option.value ~default:head (stdlib_alias head) in
          if String.equal head "float" then
            if nested || strict_float then
              Some
                (if nested then "a float-containing structure (NaN ordering, boxed traversal)"
                 else "a float (use Float.compare / Float.equal)")
            else None
          else if mem_s head safe_atomic then None
          else if mem_s head safe_parametric then first ~nested:true (depth + 1) args
          else if String.equal head "exn" || sanctioned_head head
                  || mem_s head mutable_heads then
            Some (Printf.sprintf "the opaque type %s" head)
          else if Hashtbl.mem seen head then None
          else begin
            Hashtbl.add seen head ();
            match find_decl table ~modname head with
            | Some (Alias ty) -> go ~nested (depth + 1) ty
            | Some (Record { fields; _ }) -> first ~nested:true (depth + 1) fields
            | Some (Variant tys) -> first ~nested:true (depth + 1) tys
            | Some Opaque | None ->
                Some
                  (Printf.sprintf
                     "the abstract type %s (representation changes silently change the order)"
                     head)
          end)
      | _ -> None
  and first ?(nested = true) depth tys =
    List.fold_left
      (fun acc ty -> match acc with Some _ -> acc | None -> go ~nested depth ty)
      None tys
  in
  go ~nested:false 0 ty

type mutability = Immutable | Mutable of string | Sanctioned

(* Does a value of type [ty] contain unsanctioned shared-mutable state?
   A type whose only mutability sits behind Atomic/Mutex/DLS heads is
   [Sanctioned]; arrow types are [Immutable] (a closure is code, its
   captures are charged where they are defined). *)
let mutability (table : table) ~modname ty =
  let seen = Hashtbl.create 16 in
  let saw_sanctioned = ref false in
  let rec go depth ty =
    if depth > max_depth then None
    else
      match Types.get_desc ty with
      | Types.Tarrow _ | Types.Tvar _ | Types.Tunivar _ -> None
      | Types.Ttuple tys -> first (depth + 1) tys
      | Types.Tpoly (ty, _) -> go depth ty
      | Types.Tconstr (p, args, _) -> (
          let head = dotted_of_path p in
          let head = Option.value ~default:head (stdlib_alias head) in
          if sanctioned_head head then begin
            saw_sanctioned := true;
            None
          end
          else if String.equal head "ref" then Some "a ref cell"
          else if String.equal head "array" then Some "an array"
          else if String.equal head "bytes" then Some "mutable bytes"
          else if mem_s head mutable_heads then Some (head ^ " (mutable container)")
          else if mem_s head safe_atomic || String.equal head "float" then None
          else if mem_s head safe_parametric then first (depth + 1) args
          else if Hashtbl.mem seen head then None
          else begin
            Hashtbl.add seen head ();
            match find_decl table ~modname head with
            | Some (Alias ty) -> go (depth + 1) ty
            | Some (Record { has_mutable = true; _ }) ->
                Some (Printf.sprintf "%s (record with mutable fields)" head)
            | Some (Record { fields; _ }) -> first (depth + 1) fields
            | Some (Variant tys) -> first (depth + 1) tys
            | Some Opaque | None -> None (* opaque and unknown: give the benefit of the doubt *)
          end)
      | _ -> None
  and first depth tys =
    List.fold_left
      (fun acc ty -> match acc with Some _ -> acc | None -> go depth ty)
      None tys
  in
  match go 0 ty with
  | Some why -> Mutable why
  | None -> if !saw_sanctioned then Sanctioned else Immutable
