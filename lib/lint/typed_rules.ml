(* The typed, interprocedural rule engine: two passes over every loaded
   Typedtree, one shared call graph, six rules.

   T1 domain-race           -- toplevel mutable state that something
      writes, touched by a function transitively invoked inside an
      [Ftr_exec.Pool] worker job (or a bare [Domain.spawn] closure)
      without passing through the sanctioned seams: Atomic/Mutex/
      Domain.DLS-typed state, and branches dominated by
      [Ftr_obs.Flag.enabled] — the one gate that consults
      [Flag.suppress_in_domain]'s domain-local flag, so code behind it
      never runs inside a worker. A write is a field set, or any use of
      the global other than a field read, a call of it, or an argument
      to a known read-only accessor ([.(i)], [!], [Array.length], ...).
   T2 nondeterminism-taint  -- a toplevel binding that reads
      [Random.*]/[Sys.time]/[Unix.time]/[Unix.gettimeofday]/
      [Monotonic_clock.*], and every toplevel function that calls
      (transitively) into one, with the call chain to the source. A read
      in module-initialisation code is reported where it happens. The
      injectable clock seam (lib/obs/span.ml) is a declared sanitizer:
      sources inside it taint nothing.
   T3 typed-polymorphic-comparison -- the real instantiation type of
      every [compare]/[=]/[<]/[min]/... occurrence: floats buried in
      structures, closures and abstract types are caught even through
      bare identifiers.
   T4 typed-hot-path-allocation -- in modules tagged [ftr-lint: hot]:
      anywhere, [@] and the list-scanning or closure-capturing [List]
      combinators; inside loop bodies, every allocation the Typedtree
      makes visible (tuples, records, non-constant constructors —
      including boxed float payloads — array literals, closures and
      partial applications). Applications whose result type is [int32]
      are also allocations (the box) unless directly wrapped in
      [Int32.to_int] — the Adjacency.I32 accessor pattern, whose
      box/unbox pair cmmgen cancels — so a hot loop reading a Bigarray
      without going through the I32 accessors is caught here.
   T5 typed-unordered-iteration-in-output -- [Hashtbl.iter]/[fold]
      inside a binding whose name marks an output path ([emit],
      [to_json], [write], ...) makes output depend on hash order,
      breaking byte-identical --jobs invariance. Only the chain of
      binding names counts, never the module path; an iteration whose
      result is visibly sorted nearby is accepted.
   T6 unreferenced-export   -- a value a lib/ unit exports that no other
      unit of the analyzed tree references. With an .mli the exports are
      the [val]s of its .cmti, and a use inside the unit itself does not
      count (the finding then sits on the .mli line: drop the line, keep
      the value). Without one, every value bound at the unit's top level
      is exported, and any use but a binding's own recursion counts.
      Uses reach through module aliases and [include], and module
      initialisation code is a user like any other. test/ units count as
      no user: a value only they name is a finding whose message says so.

   Pass 1 registers nodes for every toplevel binding (with cross-unit
   names) and classifies toplevel globals; pass 2 walks bodies adding
   edges, accesses, taints and the purely local findings. *)

open Typedtree

(* The clock seam file: sources inside it are the sanctioned injection
   point. *)
let is_clock_seam file = Filename.check_suffix file "lib/obs/span.ml"

(* ------------------------------------------------------------------ *)
(* Paths                                                               *)
(* ------------------------------------------------------------------ *)

let path_parts p = Type_probe.strip_stdlib (String.split_on_char '.' (Path.name p))

let dotted p = String.concat "." (path_parts p)

(* Worker-job boundaries: the function arguments of these calls execute
   on pool/worker domains. Module heads may appear in wrapper-alias form
   ("Ftr_exec.Pool") or mangled form ("Ftr_exec__Pool") depending on
   where the reference sits. *)
let module_head m name = String.equal m name || String.ends_with ~suffix:("__" ^ name) m

let is_worker_boundary parts =
  match List.rev parts with
  (* Intra-library references print relative ("Pool.map"), cross-library
     ones qualified ("Ftr_exec.Pool.map" / "Ftr_exec__Pool.map"); accept
     any Pool-headed spelling — there is exactly one Pool. *)
  | ("map" | "map_seeded") :: m :: _ -> module_head m "Pool"
  | "spawn" :: "Domain" :: _ -> true
  | _ -> false

(* T1's read-only calls: those that return only a size, a flag or a
   copy of immutable data... *)
let reads_shape parts =
  match parts with
  | [ ("Array" | "Hashtbl" | "Bytes" | "Buffer" | "Queue"); "length" ]
  | [ "Hashtbl"; "mem" ]
  | [ "Bytes"; "get" ]
  | [ "Buffer"; "contents" ]
  | [ "Queue"; "is_empty" ] ->
      true
  | _ -> false

(* ... those whose result is one element of the container, read-only if
   that element is ... *)
let projects parts =
  match parts with
  | [ "!" ] | [ "Array"; ("get" | "unsafe_get") ] | [ "Hashtbl"; ("find" | "find_opt") ] -> true
  | _ -> false

(* ... and those that hand its elements on, read-only if every element
   type is immutable. *)
let reads_elements parts =
  match parts with
  | [ "Array";
      ( "iter" | "iteri" | "fold_left" | "fold_right" | "exists" | "for_all" | "mem" | "to_list"
      | "copy" | "sub" | "map" | "mapi" ) ]
  | [ "Hashtbl"; ("find_all" | "iter" | "fold") ] ->
      true
  | _ -> false

let is_flag_enabled parts =
  match List.rev parts with "enabled" :: m :: _ -> module_head m "Flag" | _ -> false

(* T2's taint seeds. *)
let is_nondet_source parts =
  match parts with
  | ("Random" | "Monotonic_clock") :: _ :: _ -> true
  | [ "Sys"; "time" ] | [ "Unix"; "gettimeofday" ] | [ "Unix"; "time" ] -> true
  | _ -> false

let hot_list_combinators =
  [
    "mem"; "append"; "map"; "mapi"; "map2"; "filter"; "filteri"; "filter_map"; "concat";
    "concat_map"; "flatten"; "fold_left"; "fold_right"; "iter"; "iteri"; "exists"; "for_all";
    "find"; "find_opt"; "find_map"; "assoc"; "assoc_opt"; "mem_assoc"; "nth"; "init"; "sort";
    "sort_uniq"; "stable_sort";
  ]

let is_hot_list_op parts =
  match parts with [ "@" ] -> true | [ "List"; m ] -> List.mem m hot_list_combinators | _ -> false

let is_sort_path parts =
  match parts with
  | [ ("List" | "Array"); ("sort" | "sort_uniq" | "stable_sort" | "fast_sort") ] -> true
  | _ -> false

let output_markers =
  [ "emit"; "export"; "merge"; "to_json"; "report"; "dump"; "render"; "write"; "print" ]

let is_output_name name =
  List.exists (fun m -> Option.is_some (Suppress.find_sub name m)) output_markers

let poly_compare_op parts =
  match parts with
  | [ ("=" | "<>") ] -> Some (List.hd parts, true)
  | [ ("<" | ">" | "<=" | ">=") ] -> Some (List.hd parts, false)
  | [ ("compare" | "min" | "max") ] -> Some (List.hd parts, true)
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Analysis state                                                      *)
(* ------------------------------------------------------------------ *)

type global = {
  g_node : int; (* its callgraph node *)
  g_name : string;
  g_why : string; (* which mutable component makes it shared state *)
}

type access = {
  a_node : int; (* accessing node *)
  a_global : global;
  a_file : string;
  a_line : int;
  a_col : int;
  a_gated : bool;
  a_in_worker_arg : bool; (* textually inside a worker-job argument *)
}

type taint_src = { s_node : int; s_what : string; s_file : string; s_line : int; s_col : int }

type alloc = { l_file : string; l_line : int; l_col : int; l_what : string }

type cmp = { c_file : string; c_line : int; c_col : int; c_op : string; c_why : string }

type unordered = { u_file : string; u_line : int; u_col : int; u_fn : string; u_binding : string }

type t = {
  graph : Callgraph.t;
  decls : Type_probe.table;
  (* (unit index, Ident.unique_name) -> node id; locals are added on
     the fly during pass 2, toplevels in pass 1. Idents are per-unit:
     stamps collide across cmts, hence the unit index in the key. *)
  by_stamp : (int * string, int) Hashtbl.t;
  (* cross-unit name -> node id, e.g. "Ftr_core__Route.route" and
     "Ftr_core.Route.route". *)
  by_name : (string, int) Hashtbl.t;
  globals : (int, global) Hashtbl.t; (* node id -> global info *)
  written : (int, unit) Hashtbl.t; (* globals something writes (T1) *)
  (* (unit index, Ident.unique_name) of a module binding -> the module
     path it stands for: an alias's target, or a nested structure's
     unit-qualified path. *)
  mod_paths : (int * string, string) Hashtbl.t;
  (* module path -> the module paths that also answer for it: a
     toplevel alias's target, and every module it includes. Tried only
     when the direct name is unknown. *)
  forwards : (string, string) Hashtbl.t;
  (* toplevel node -> (unit index, bound at the unit's top level) *)
  toplevel_of : (int, int * bool) Hashtbl.t;
  (* toplevel node -> who names it (T6): [other_unit], [own_unit],
     [test_unit] bits *)
  uses : (int, int) Hashtbl.t;
  mutable worker_roots : int list; (* reversed; order fixed before use *)
  mutable accesses : access list;
  mutable taint_sources : taint_src list;
  mutable allocs : alloc list;
  mutable cmps : cmp list;
  mutable unordered : unordered list;
  mutable hot_files : string list;
  units : Cmt_loader.unit_info array;
}

let display_unit modname =
  (* "Ftr_core__Route" -> "Ftr_core.Route"; executables keep their
     mangled "Dune__exe__P2psim" readable enough the same way. *)
  let b = Buffer.create (String.length modname) in
  let i = ref 0 in
  let n = String.length modname in
  while !i < n do
    if !i + 1 < n && modname.[!i] = '_' && modname.[!i + 1] = '_' then begin
      Buffer.add_char b '.';
      i := !i + 2
    end
    else begin
      Buffer.add_char b modname.[!i];
      incr i
    end
  done;
  Buffer.contents b

let loc_of (loc : Location.t) ~fallback_file =
  let pos = loc.loc_start in
  let file = if String.equal pos.pos_fname "" then fallback_file else pos.pos_fname in
  (file, pos.pos_lnum, pos.pos_cnum - pos.pos_bol)

(* ------------------------------------------------------------------ *)
(* Pass 1: toplevel nodes, globals, declaration table                  *)
(* ------------------------------------------------------------------ *)

(* The module a module expression names, through constraints. *)
let rec alias_target (me : module_expr) =
  match me.mod_desc with
  | Tmod_ident (p, _) -> Some p
  | Tmod_constraint (me, _, _, _) -> alias_target me
  | _ -> None

(* [p] with its head expanded through the unit's module bindings:
   [Rng.int] under [module Rng = Ftr_prng.Rng] is "Ftr_prng.Rng.int". *)
let rec module_path t ui (p : Path.t) =
  match p with
  | Pident id -> (
      match Hashtbl.find_opt t.mod_paths (ui, Ident.unique_name id) with
      | Some m -> m
      | None -> Ident.name id)
  | Pdot (m, s) -> module_path t ui m ^ "." ^ s
  | _ -> Path.name p

(* Every module alias in a unit, [let module] ones included, in
   textual order so that an alias of an alias expands fully. *)
let collect_aliases t ui (str : structure) =
  let add id me =
    match alias_target me with
    | Some p -> Hashtbl.replace t.mod_paths (ui, Ident.unique_name id) (module_path t ui p)
    | None -> ()
  in
  let it =
    {
      Tast_iterator.default_iterator with
      module_binding =
        (fun it mb ->
          Option.iter (fun id -> add id mb.mb_expr) mb.mb_id;
          Tast_iterator.default_iterator.module_binding it mb);
      expr =
        (fun it e ->
          (match e.exp_desc with Texp_letmodule (Some id, _, _, me, _) -> add id me | _ -> ());
          Tast_iterator.default_iterator.expr it e);
    }
  in
  it.structure it str

(* Node of value [v] of module path [m], else of a module [m] forwards to. *)
let rec lookup ?(depth = 0) t m v =
  match Hashtbl.find_opt t.by_name (m ^ "." ^ v) with
  | Some n -> Some n
  | None when depth >= 8 -> None
  | None -> List.find_map (fun fw -> lookup ~depth:(depth + 1) t fw v) (Hashtbl.find_all t.forwards m)

let resolve_path t ui (p : Path.t) =
  match p with
  | Pident id -> Hashtbl.find_opt t.by_stamp (ui, Ident.unique_name id)
  | Pdot (m, v) -> lookup t (module_path t ui m) v
  | _ -> None

let other_unit = 1
let own_unit = 2
let test_unit = 4

let mark_use t node bit =
  if Hashtbl.mem t.toplevel_of node then
    Hashtbl.replace t.uses node (bit lor Option.value ~default:0 (Hashtbl.find_opt t.uses node))

(* A type-level [Mutable] verdict can overshoot the value: [Failure.none]
   has a type that *may* carry a Bitset, but the constant
   [{ node_view = N_all; link_view = L_all }] holds no mutable cell at
   all. A RHS built purely from constants, constant-field records
   (checked against the labels' own [lbl_mut]), constructors and empty
   arrays cannot be written through, so the binding is not shared
   mutable state whatever its type says. *)
let rec rhs_definitely_immutable (e : expression) =
  match e.exp_desc with
  | Texp_constant _ -> true
  | Texp_construct (_, _, args) -> List.for_all rhs_definitely_immutable args
  | Texp_variant (_, arg) -> Option.fold ~none:true ~some:rhs_definitely_immutable arg
  | Texp_tuple es -> List.for_all rhs_definitely_immutable es
  | Texp_array [] -> true (* zero length: nothing to write *)
  | Texp_record { fields; extended_expression = None } ->
      Array.for_all
        (fun ((lbl : Types.label_description), def) ->
          (match lbl.lbl_mut with Asttypes.Immutable -> true | Asttypes.Mutable -> false)
          &&
          match def with
          | Overridden (_, e) -> rhs_definitely_immutable e
          | Kept _ -> false)
        fields
  | _ -> false

(* [let x = e] types its pattern as [Tpat_var]; the annotated form
   [let x : t = e] as [Tpat_alias (Tpat_any, x, _)]. Both are the same
   named binding. *)
let binding_var (p : pattern) =
  match p.pat_desc with
  | Tpat_var (id, name_loc) -> Some (id, name_loc)
  | Tpat_alias ({ pat_desc = Tpat_any; _ }, id, name_loc) -> Some (id, name_loc)
  | _ -> None

let register_toplevels t ui =
  let u = t.units.(ui) in
  let unit_disp = display_unit u.modname in
  let rec items subpath (its : structure_item list) =
    List.iter
      (fun (it : structure_item) ->
        match it.str_desc with
        | Tstr_value (_, vbs) ->
            List.iter
              (fun (vb : value_binding) ->
                match binding_var vb.vb_pat with
                | Some (id, name_loc) ->
                    let file, line, col = loc_of name_loc.loc ~fallback_file:u.source in
                    let disp =
                      unit_disp ^ "." ^ String.concat "." (subpath @ [ Ident.name id ])
                    in
                    let node = Callgraph.add_node t.graph ~name:disp ~file ~line ~col in
                    Hashtbl.replace t.by_stamp (ui, Ident.unique_name id) node;
                    Hashtbl.replace t.toplevel_of node (ui, subpath = []);
                    List.iter
                      (fun k -> if not (Hashtbl.mem t.by_name k) then Hashtbl.add t.by_name k node)
                      (Type_probe.decl_keys ~modname:u.modname ~subpath (Ident.name id));
                    (* A non-function toplevel whose type carries
                       unsanctioned mutable state is a shared global. *)
                    (match Types.get_desc vb.vb_expr.exp_type with
                    | Types.Tarrow _ -> ()
                    | _ -> (
                        match
                          Type_probe.mutability t.decls ~modname:u.modname vb.vb_expr.exp_type
                        with
                        | Type_probe.Mutable why when not (rhs_definitely_immutable vb.vb_expr)
                          ->
                            Hashtbl.replace t.globals node
                              { g_node = node; g_name = disp; g_why = why }
                        | Type_probe.Mutable _ | Type_probe.Immutable | Type_probe.Sanctioned ->
                            ()))
                | None -> ())
              vbs
        | Tstr_module mb -> module_binding subpath mb
        | Tstr_recmodule mbs -> List.iter (module_binding subpath) mbs
        | Tstr_include { incl_mod; _ } ->
            (* [include M] answers for M's values under this path. *)
            Option.iter (forward subpath) (alias_target incl_mod)
        | _ -> ())
      its
  and forward subpath target =
    let m = module_path t ui target in
    List.iter (fun k -> Hashtbl.add t.forwards k m) (Type_probe.module_keys ~modname:u.modname subpath)
  and module_binding subpath (mb : module_binding) =
    let name = match mb.mb_name.txt with Some n -> n | None -> "_" in
    let rec of_expr (me : module_expr) =
      match me.mod_desc with
      | Tmod_structure str ->
          Option.iter
            (fun id ->
              Hashtbl.replace t.mod_paths (ui, Ident.unique_name id)
                (String.concat "." ((u.modname :: subpath) @ [ name ])))
            mb.mb_id;
          items (subpath @ [ name ]) str.str_items
      | Tmod_constraint (me, _, _, _) -> of_expr me
      | Tmod_ident (p, _) -> forward (subpath @ [ name ]) p
      | _ -> ()
    in
    of_expr mb.mb_expr
  in
  collect_aliases t ui u.structure;
  items [] u.structure.str_items

(* ------------------------------------------------------------------ *)
(* Pass 2: bodies                                                      *)
(* ------------------------------------------------------------------ *)

(* Does [e] mention an identifier whose path satisfies [pred]? *)
let mentions pred e =
  let found = ref false in
  let it =
    {
      Tast_iterator.default_iterator with
      expr =
        (fun it e ->
          (match e.exp_desc with Texp_ident (p, _, _) when pred p -> found := true | _ -> ());
          Tast_iterator.default_iterator.expr it e);
    }
  in
  it.expr it e;
  !found

(* Per-unit gate variables: stamps of let-bound names whose defining
   expression consults [Flag.enabled] (the `let obs = Flag.enabled ()
   in ... if obs then ...` idiom). *)
let collect_gate_vars (u : Cmt_loader.unit_info) =
  let vars = Hashtbl.create 8 in
  let it =
    {
      Tast_iterator.default_iterator with
      value_binding =
        (fun it vb ->
          (match vb.vb_pat.pat_desc with
          | Tpat_var (id, _) when mentions (fun p -> is_flag_enabled (path_parts p)) vb.vb_expr ->
              Hashtbl.replace vars (Ident.unique_name id) ()
          | _ -> ());
          Tast_iterator.default_iterator.value_binding it vb);
    }
  in
  it.structure it u.structure;
  vars

let walk_unit t ui =
  let u = t.units.(ui) in
  let unit_disp = display_unit u.modname in
  let hot = List.exists (fun f -> String.equal f u.source) t.hot_files in
  let seam = is_clock_seam u.source in
  let gate_vars = collect_gate_vars u in
  (* Synthetic node for module-initialisation code ([let () = ...],
     [Tstr_eval], RHS of pattern bindings). *)
  let init_node =
    Callgraph.add_node t.graph ~name:(unit_disp ^ ".(init)") ~file:u.source ~line:1 ~col:0
  in
  let current = ref init_node in
  (* The toplevel binding whose body is being walked: T6 ignores a
     binding's references to itself. *)
  let owner = ref init_node in
  let gate_depth = ref 0 in
  let loop_depth = ref 0 in
  let worker_arg_depth = ref 0 in
  (* The application directly wrapped in [Int32.to_int ...], if the
     walk is currently inside one: its box is cancelled by the unbox,
     so the boxed-int32 check skips exactly that node (physical
     equality — nested applications inside it still report). *)
  let exempt_int32 : expression option ref = ref None in
  let cond_is_gate =
    mentions (function
      | Path.Pident id when Hashtbl.mem gate_vars (Ident.unique_name id) -> true
      | p -> is_flag_enabled (path_parts p))
  in
  (* Enclosing value-binding names, innermost first (T5), and enclosing
     expressions, nearest first (T5's sorted-nearby exemption). *)
  let binding_names = ref [] in
  let ancestors = ref [] in
  let record_hot loc what =
    if hot then begin
      let l_file, l_line, l_col = loc_of loc ~fallback_file:u.source in
      t.allocs <- { l_file; l_line; l_col; l_what = what } :: t.allocs
    end
  in
  let record_alloc loc what =
    if !loop_depth > 0 then record_hot loc (Printf.sprintf "allocates a %s inside a loop" what)
  in
  (* T1: whether the global (or a part of it) at [e] may be written
     where it occurs, judged by the expressions around it. A projected
     element that can hold mutable state is judged in turn where it is
     used, so [g.(i).(j) <- v] writes [g]. Any use T1 cannot classify
     counts as a write. *)
  let immutable ty =
    match Type_probe.mutability t.decls ~modname:u.modname ty with
    | Type_probe.Mutable _ -> false
    | Type_probe.Immutable | Type_probe.Sanctioned -> true
  in
  let rec writes (e : expression) parents =
    match parents with
    | ({ exp_desc = Texp_apply (fn, args); _ } as app) :: rest when fn != e -> (
        List.exists (fun (_, a) -> match a with Some a -> a == e | None -> false) args
        &&
        match fn.exp_desc with
        | Texp_ident (p, _, _) when reads_shape (path_parts p) -> false
        | Texp_ident (p, _, _) when projects (path_parts p) ->
            (not (immutable app.exp_type)) && writes app rest
        | Texp_ident (p, _, _) when reads_elements (path_parts p) -> (
            match Types.get_desc e.exp_type with
            | Types.Tconstr (_, elements, _) -> not (List.for_all immutable elements)
            | _ -> true)
        | _ -> true)
    | { exp_desc = Texp_apply _; _ } :: _ -> false
    | ({ exp_desc = Texp_field _; _ } as field) :: rest ->
        (not (immutable field.exp_type)) && writes field rest
    | _ -> true
  in
  let ident_ref e p parents =
    let parts = path_parts p in
    let file, line, col = loc_of e.exp_loc ~fallback_file:u.source in
    (* Call-graph edge and worker roots. *)
    (match resolve_path t ui p with
    | Some target ->
        (match Hashtbl.find_opt t.toplevel_of target with
        | Some (tu, _) when tu <> ui -> mark_use t target other_unit
        | Some _ when target <> !owner -> mark_use t target own_unit
        | _ -> ());
        if target <> !current then
          Callgraph.add_edge t.graph ~gated:(!gate_depth > 0) !current target;
        if !worker_arg_depth > 0 then t.worker_roots <- target :: t.worker_roots;
        (* Access to a toplevel mutable global. *)
        (match Hashtbl.find_opt t.globals target with
        | Some g ->
            if writes e parents then Hashtbl.replace t.written g.g_node ();
            t.accesses <-
              {
                a_node = !current;
                a_global = g;
                a_file = file;
                a_line = line;
                a_col = col;
                a_gated = !gate_depth > 0;
                a_in_worker_arg = !worker_arg_depth > 0;
              }
              :: t.accesses
        | None -> ())
    | None -> ());
    (* T2 taint seeds. *)
    if (not seam) && is_nondet_source parts then
      t.taint_sources <-
        { s_node = !current; s_what = dotted p; s_file = file; s_line = line; s_col = col }
        :: t.taint_sources;
    if is_hot_list_op parts then
      record_hot e.exp_loc (Printf.sprintf "%s scans or builds a list" (dotted p));
    (* T3: instantiation type of a polymorphic comparison operator.
       The occurrence's own type is the instantiated arrow; its first
       argument type is the compared type, whether the operator is
       applied here or passed to a higher-order function. *)
    match poly_compare_op parts with
    | Some (op, strict_float) -> (
        match Types.get_desc e.exp_type with
        | Types.Tarrow (_, arg, _, _) -> (
            match Type_probe.comparison_unsafe t.decls ~modname:u.modname ~strict_float arg with
            | Some why ->
                t.cmps <- { c_file = file; c_line = line; c_col = col; c_op = op; c_why = why }
                          :: t.cmps
            | None -> ())
        | _ -> ())
    | None -> ()
  in
  (* T5: a hash-order walk inside an output-named binding, unless its
     three nearest enclosing expressions mention a sort. *)
  let check_unordered e fn_name parents =
    let sorted_nearby () =
      List.exists
        (mentions (fun p -> is_sort_path (path_parts p)))
        (List.filteri (fun i _ -> i < 3) parents)
    in
    match List.find_opt is_output_name !binding_names with
    | Some binding when not (sorted_nearby ()) ->
        let u_file, u_line, u_col = loc_of e.exp_loc ~fallback_file:u.source in
        t.unordered <- { u_file; u_line; u_col; u_fn = fn_name; u_binding = binding } :: t.unordered
    | _ -> ()
  in
  let visit it (e : expression) parents =
    match e.exp_desc with
    | Texp_ident (p, _, _) -> ident_ref e p parents
    | Texp_ifthenelse (c, then_, else_opt) when cond_is_gate c ->
        it.Tast_iterator.expr it c;
        incr gate_depth;
        it.Tast_iterator.expr it then_;
        Option.iter (it.Tast_iterator.expr it) else_opt;
        decr gate_depth
    | Texp_while (cond, body) ->
        it.Tast_iterator.expr it cond;
        incr loop_depth;
        it.Tast_iterator.expr it body;
        decr loop_depth
    | Texp_for (_, _, lo, hi, _, body) ->
        it.Tast_iterator.expr it lo;
        it.Tast_iterator.expr it hi;
        incr loop_depth;
        it.Tast_iterator.expr it body;
        decr loop_depth
    | Texp_apply (fn, args) ->
        let fn_parts =
          match fn.exp_desc with Texp_ident (p, _, _) -> path_parts p | _ -> []
        in
        (match fn_parts with
        | [ "Hashtbl"; (("iter" | "fold") as fn_name) ] -> check_unordered e fn_name parents
        | _ -> ());
        let boundary = is_worker_boundary fn_parts in
        let unboxer = match fn_parts with [ "Int32"; "to_int" ] -> true | _ -> false in
        it.Tast_iterator.expr it fn;
        List.iter
          (fun (_, arg) ->
            match arg with
            | None -> ()
            | Some (a : expression) ->
                let is_fn =
                  match Types.get_desc a.exp_type with Types.Tarrow _ -> true | _ -> false
                in
                if boundary && is_fn then begin
                  incr worker_arg_depth;
                  it.Tast_iterator.expr it a;
                  decr worker_arg_depth
                end
                else if unboxer then begin
                  let saved = !exempt_int32 in
                  exempt_int32 := Some a;
                  it.Tast_iterator.expr it a;
                  exempt_int32 := saved
                end
                else it.Tast_iterator.expr it a)
          args;
        (* A partial application materialises a closure; a fully-applied
           call returning int32 materialises the box — unless the parent
           is the Int32.to_int that cancels it, or the call is a ref
           deref, which returns an already-allocated box. *)
        (match Types.get_desc e.exp_type with
        | Types.Tarrow _ -> record_alloc e.exp_loc "partial application (closure)"
        | Types.Tconstr (p, _, _)
          when (match dotted p with "int32" | "Int32.t" -> true | _ -> false)
               && (match fn_parts with [ "!" ] -> false | _ -> true)
               && not (match !exempt_int32 with Some ex -> ex == e | None -> false) ->
            record_alloc e.exp_loc
              "boxed int32 (unbox at the call with Int32.to_int, as the Adjacency.I32 \
               accessors do)"
        | _ -> ())
    | Texp_function _ ->
        record_alloc e.exp_loc "closure";
        (* The body runs when called, not while this loop spins. *)
        let saved = !loop_depth in
        loop_depth := 0;
        Tast_iterator.default_iterator.expr it e;
        loop_depth := saved
    | Texp_tuple _ ->
        record_alloc e.exp_loc "tuple";
        Tast_iterator.default_iterator.expr it e
    | Texp_record _ ->
        record_alloc e.exp_loc "record";
        Tast_iterator.default_iterator.expr it e
    | Texp_array (_ :: _) ->
        record_alloc e.exp_loc "array literal";
        Tast_iterator.default_iterator.expr it e
    | Texp_construct (_, cd, (_ :: _ as args)) ->
        let boxes_float =
          List.exists
            (fun (a : expression) ->
              match Types.get_desc a.exp_type with
              | Types.Tconstr (p, _, _) -> String.equal (dotted p) "float"
              | _ -> false)
            args
        in
        record_alloc e.exp_loc
          (if boxes_float then
             Printf.sprintf "constructor %s with a boxed float payload" cd.cstr_name
           else Printf.sprintf "constructor %s" cd.cstr_name);
        Tast_iterator.default_iterator.expr it e
    | _ -> Tast_iterator.default_iterator.expr it e
  in
  let expr it (e : expression) =
    let parents = !ancestors in
    ancestors := e :: parents;
    visit it e parents;
    ancestors := parents
  in
  (* Named let-bindings switch the owning node while their RHS is
     walked; nodes for locals are created here on first sight. *)
  let value_binding it (vb : value_binding) =
    match binding_var vb.vb_pat with
    | Some (id, name_loc) ->
        let node =
          match Hashtbl.find_opt t.by_stamp (ui, Ident.unique_name id) with
          | Some n -> n
          | None ->
              let file, line, col = loc_of name_loc.loc ~fallback_file:u.source in
              let disp = Callgraph.(name t.graph !current) ^ "/" ^ Ident.name id in
              let n = Callgraph.add_node t.graph ~name:disp ~file ~line ~col in
              Hashtbl.replace t.by_stamp (ui, Ident.unique_name id) n;
              n
        in
        (* Evaluating the RHS of a non-function binding happens the
           moment the enclosing code runs, so charge an edge from the
           definer; a syntactic function's body only runs when called,
           and call sites add their own edges. *)
        let rhs_is_function =
          match vb.vb_expr.exp_desc with Texp_function _ -> true | _ -> false
        in
        if node <> !current && not rhs_is_function then
          Callgraph.add_edge t.graph ~gated:(!gate_depth > 0) !current node;
        (* The RHS evaluates wherever the binding sits — keep the loop
           depth; a function RHS zeroes it in the [Texp_function] case. *)
        let saved = !current and saved_owner = !owner and saved_names = !binding_names in
        current := node;
        if Hashtbl.mem t.toplevel_of node then owner := node;
        binding_names := Ident.name id :: saved_names;
        Tast_iterator.default_iterator.value_binding it vb;
        current := saved;
        owner := saved_owner;
        binding_names := saved_names
    | None -> Tast_iterator.default_iterator.value_binding it vb
  in
  let iter = { Tast_iterator.default_iterator with expr; value_binding } in
  iter.structure iter u.structure

(* ------------------------------------------------------------------ *)
(* Rule evaluation                                                     *)
(* ------------------------------------------------------------------ *)

let finding rule file line col message = { Finding.file; line; col; rule; message }

let chain_suffix names =
  match names with
  | [] -> ""
  | _ -> Printf.sprintf " (worker job -> %s)" (String.concat " -> " names)

(* T1: unsanctioned toplevel mutable state that something writes, touched
   by worker-reachable code, ungated accesses only. *)
let t1_findings t =
  let roots = List.sort_uniq Int.compare (List.rev t.worker_roots) in
  let visited, parent = Callgraph.bfs t.graph ~through_gated:false roots in
  List.filter_map
    (fun a ->
      let reachable =
        a.a_in_worker_arg || (a.a_node < Array.length visited && visited.(a.a_node))
      in
      if reachable && (not a.a_gated) && Hashtbl.mem t.written a.a_global.g_node then
        let via =
          if a.a_in_worker_arg then []
          else Callgraph.chain t.graph parent a.a_node
        in
        Some
          (finding Finding.T1 a.a_file a.a_line a.a_col
             (Printf.sprintf
                "%s is toplevel mutable state (%s) touched by code reachable from an \
                 Ftr_exec.Pool worker job%s; share it through Atomic/Mutex/Domain.DLS or keep \
                 it domain-local (docs/PARALLELISM.md)"
                a.a_global.g_name a.a_global.g_why (chain_suffix via)))
      else None)
    (List.rev t.accesses)

(* T2: toplevel bindings that read a nondeterminism source, and the
   toplevel functions that reach one through the call graph. Module
   initialisation has no binding to blame, so a read there is reported
   at the read itself. *)
let t2_findings t =
  let sources = List.rev t.taint_sources in
  let direct = Hashtbl.create 16 in
  List.iter (fun s -> Hashtbl.replace direct s.s_node s.s_what) sources;
  let seeds = List.sort_uniq Int.compare (List.map (fun s -> s.s_node) sources) in
  let visited, parent = Callgraph.bfs t.graph ~reverse:true seeds in
  let advice = "thread an Ftr_prng.Rng or an injectable clock through the call chain instead" in
  let in_init nd = Option.is_some (Suppress.find_sub (Callgraph.name t.graph nd) ".(init)") in
  let init_reads =
    List.filter_map
      (fun s ->
        if in_init s.s_node then
          Some
            (finding Finding.T2 s.s_file s.s_line s.s_col
               (Printf.sprintf "%s runs in module initialisation; %s" s.s_what advice))
        else None)
      sources
  in
  let findings = ref [] in
  for nd = 0 to Callgraph.node_count t.graph - 1 do
    let nm = Callgraph.name t.graph nd in
    if
      nd < Array.length visited
      && visited.(nd)
      && Suppress.find_sub nm "/" = None (* locals: their toplevel owner reports *)
      && not (in_init nd)
    then begin
      let info = Callgraph.node t.graph nd in
      let message =
        match Hashtbl.find_opt direct nd with
        | Some what -> Printf.sprintf "%s reads %s; %s" nm what advice
        | None ->
            (* The reverse-BFS parent chain runs source -> ... -> nd;
               reverse it to read as a call chain nd -> ... -> source. *)
            let chain = List.rev (Callgraph.chain t.graph parent nd) in
            let src_name = match List.rev chain with s :: _ -> s | [] -> "?" in
            let what =
              Hashtbl.fold
                (fun n w acc -> if String.equal (Callgraph.name t.graph n) src_name then w else acc)
                direct "a nondeterminism source"
            in
            Printf.sprintf "%s is transitively nondeterministic: %s reaches %s; %s" nm
              (String.concat " -> " chain) what advice
      in
      findings := finding Finding.T2 info.file info.line info.col message :: !findings
    end
  done;
  init_reads @ List.rev !findings

let t3_findings t =
  List.rev_map
    (fun c ->
      finding Finding.T3 c.c_file c.c_line c.c_col
        (Printf.sprintf
           "polymorphic %s instantiated at %s; use a typed comparator (Float.compare, \
            Int.equal, a per-field compare)"
           c.c_op c.c_why))
    t.cmps

let t4_findings t =
  List.rev_map
    (fun l ->
      finding Finding.T4 l.l_file l.l_line l.l_col
        (Printf.sprintf
           "%s in a module tagged `ftr-lint: hot` (allocation-free hot path, \
            docs/MEMORY_LAYOUT.md)"
           l.l_what))
    t.allocs

let t5_findings t =
  List.rev_map
    (fun u ->
      finding Finding.T5 u.u_file u.u_line u.u_col
        (Printf.sprintf
           "Hashtbl.%s inside %S feeds an output path in hash order; sort the entries first \
            (byte-identical --jobs invariance, docs/PARALLELISM.md)"
           u.u_fn u.u_binding))
    t.unordered

(* T6. An observer (a test/ unit) only marks what it names. *)
let scan_observer t oi (u : Cmt_loader.unit_info) =
  collect_aliases t oi u.structure;
  let it =
    {
      Tast_iterator.default_iterator with
      expr =
        (fun it e ->
          (match e.exp_desc with
          | Texp_ident ((Pdot _ as p), _, _) ->
              Option.iter (fun n -> mark_use t n test_unit) (resolve_path t oi p)
          | _ -> ());
          Tast_iterator.default_iterator.expr it e);
    }
  in
  it.structure it u.structure

(* The [val]s of an interface, nested signatures included, in order, as
   (module subpath, name, location). *)
let rec sig_values subpath (items : signature_item list) =
  List.concat_map
    (fun (it : signature_item) ->
      match it.sig_desc with
      | Tsig_value vd -> [ (subpath, vd.val_name.txt, vd.val_name.loc) ]
      | Tsig_module
          { md_name = { txt = Some name; _ }; md_type = { mty_desc = Tmty_signature sg; _ }; _ }
        ->
          sig_values (subpath @ [ name ]) sg.sig_items
      | _ -> [])
    items

let t6_findings t ~exported =
  let tops = Array.make (Array.length t.units) [] in
  for nd = Callgraph.node_count t.graph - 1 downto 0 do
    match Hashtbl.find_opt t.toplevel_of nd with
    | Some (ui, true) -> tops.(ui) <- nd :: tops.(ui)
    | _ -> ()
  done;
  let findings = ref [] in
  let judge ~name ~file ~line ~col ~used ~bits (message : (string -> string, unit, string) format)
      =
    if not used then
      let message : (string -> string, unit, string) format =
        if bits land test_unit = 0 then message
        else if bits land own_unit <> 0 then
          "%s is exported, but only its own unit and test/ use it; drop its line from the .mli \
           with the tests that call it, or suppress T6 with the reason it stays (an oracle, a \
           seam, an open ROADMAP item)"
        else
          "%s is exported, but only test/ names it; delete it with the tests of it alone, or \
           suppress T6 with the reason it stays (an oracle, a seam, an open ROADMAP item)"
      in
      findings := finding Finding.T6 file line col (Printf.sprintf message name) :: !findings
  in
  let bits_of node = Option.value ~default:0 (Hashtbl.find_opt t.uses node) in
  Array.iteri
    (fun ui (u : Cmt_loader.unit_info) ->
      if exported u.source then
        match Cmt_loader.load_interface u.cmt_path with
        | Some sg ->
            List.iter
              (fun (subpath, v, loc) ->
                let file, line, col = loc_of loc ~fallback_file:u.source in
                let bits =
                  Option.fold ~none:0 ~some:bits_of
                    (Hashtbl.find_opt t.by_name (String.concat "." ((u.modname :: subpath) @ [ v ])))
                in
                judge
                  ~name:(String.concat "." ((display_unit u.modname :: subpath) @ [ v ]))
                  ~file ~line ~col ~bits
                  ~used:(bits land other_unit <> 0)
                  (if bits land own_unit <> 0 then
                     "%s is exported, but only its own unit uses it; drop its line from the .mli"
                   else "%s is exported, but no other unit references it; delete it"))
              (sig_values [] sg.sig_items)
        | None ->
            List.iter
              (fun nd ->
                let n = Callgraph.node t.graph nd in
                let bits = bits_of nd in
                if not (String.starts_with ~prefix:"._" (Filename.extension n.name)) then
                  judge ~name:n.name ~file:n.file ~line:n.line ~col:n.col ~bits
                    ~used:(bits land (other_unit lor own_unit) <> 0)
                    "%s is a toplevel value of a unit without an .mli, and nothing references \
                     it; delete it")
              tops.(ui))
    t.units;
  List.rev !findings

(* ------------------------------------------------------------------ *)
(* Entry point                                                         *)
(* ------------------------------------------------------------------ *)

(* [hot_files]: build-relative sources carrying the [ftr-lint: hot] tag
   (the driver scans sources for directives anyway and passes the list
   down). [exported] selects the units whose exports T6 judges (by
   source path; lib/ by default), and [observers] are the units (test/)
   whose references only change the wording of a T6 finding. *)
let run ?(exported = String.starts_with ~prefix:"lib/") ~observers ~hot_files units =
  let units = Array.of_list units in
  let t =
    {
      graph = Callgraph.create ();
      decls = Type_probe.build_table (Array.to_list units);
      by_stamp = Hashtbl.create 1024;
      by_name = Hashtbl.create 1024;
      globals = Hashtbl.create 64;
      written = Hashtbl.create 64;
      mod_paths = Hashtbl.create 256;
      forwards = Hashtbl.create 16;
      toplevel_of = Hashtbl.create 1024;
      uses = Hashtbl.create 1024;
      worker_roots = [];
      accesses = [];
      taint_sources = [];
      allocs = [];
      cmps = [];
      unordered = [];
      hot_files;
      units;
    }
  in
  for ui = 0 to Array.length units - 1 do
    register_toplevels t ui
  done;
  for ui = 0 to Array.length units - 1 do
    walk_unit t ui
  done;
  List.iteri (fun j u -> scan_observer t (Array.length units + j) u) observers;
  let findings =
    t1_findings t @ t2_findings t @ t3_findings t @ t4_findings t @ t5_findings t
    @ t6_findings t ~exported
  in
  (t, List.sort_uniq Finding.compare_findings findings)
