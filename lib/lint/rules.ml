(* The rule engine: one Parsetree walk per file, four rules. Everything
   here is syntactic -- the Parsetree carries no types -- so each rule is
   an explicitly documented heuristic tuned to this tree's idioms; the
   escape hatches are `ftr-lint: disable` comments (suppress.ml) and the
   committed baseline (baseline.ml).

   R1 nondeterminism-source      -- results must be a pure function of
      (seed, grid): no ambient RNG, no wall clock outside the injectable
      clock seams (Ftr_obs.Span.set_clock, Ftr_exec.Clock).
   R2 polymorphic-comparison     -- bare [compare] and polymorphic
      =/<>/</>/<=/>= on structured operands break once a float, a
      closure or an abstract type lands in the compared value.
   R3 unordered-iteration-in-output -- Hashtbl.iter/fold feeding an
      emit/export/merge-shaped function makes output depend on hash
      order, breaking byte-identical --jobs invariance. Iterations whose
      result is visibly sorted nearby are accepted.
   R5 hot-path-allocation        -- in modules tagged [ftr-lint: hot],
      list-scanning and closure-capturing combinators guard the
      allocation-free router of docs/MEMORY_LAYOUT.md.

   Telemetry gating is not checked here: the flow stage's D1 proves gate
   dominance path-sensitively on every .cmt (flow_rules.ml). *)

open Parsetree

type config = {
  file : string;
  hot : bool; (* module carries the [ftr-lint: hot] tag *)
  clock_seam : bool; (* allowlisted clock seam: may read the wall clock *)
}

(* ------------------------------------------------------------------ *)
(* Longident helpers                                                   *)
(* ------------------------------------------------------------------ *)

let rec path_of = function
  | Longident.Lident s -> [ s ]
  | Longident.Ldot (p, s) -> path_of p @ [ s ]
  | Longident.Lapply (p, _) -> path_of p

let strip_stdlib = function "Stdlib" :: rest -> rest | p -> p

let dotted p = String.concat "." p

(* ------------------------------------------------------------------ *)
(* Subtree predicates                                                  *)
(* ------------------------------------------------------------------ *)

exception Found

let expr_contains pred e =
  let it =
    {
      Ast_iterator.default_iterator with
      expr =
        (fun it e ->
          if pred e then raise Found;
          Ast_iterator.default_iterator.expr it e);
    }
  in
  try
    it.expr it e;
    false
  with Found -> true

let is_sort_path p =
  match List.rev (strip_stdlib p) with
  | ("sort" | "sort_uniq" | "stable_sort" | "fast_sort") :: ("List" | "Array") :: _ -> true
  | _ -> false

let mentions pred e =
  expr_contains
    (fun e -> match e.pexp_desc with Pexp_ident { txt; _ } -> pred (path_of txt) | _ -> false)
    e

(* ------------------------------------------------------------------ *)
(* Rule tables                                                         *)
(* ------------------------------------------------------------------ *)

let r1_banned p =
  match strip_stdlib p with
  | "Random" :: _ :: _ -> true (* the ambient, process-global RNG *)
  | [ "Sys"; "time" ] | [ "Unix"; "gettimeofday" ] | [ "Unix"; "time" ] -> true
  | _ -> false

let poly_ops = [ "="; "<>"; "<"; ">"; "<="; ">=" ]

(* Operand shapes that make a polymorphic comparison clearly structural:
   no Parsetree types exist, so only syntactically evident cases fire
   (string literals, tuples, records, arrays, list cells, constructors
   and variants with a payload, functions). Bare identifiers stay silent
   -- their type is unknowable here. *)
let rec clearly_structural e =
  match e.pexp_desc with
  | Pexp_constant (Pconst_string _) -> true
  | Pexp_tuple _ | Pexp_record _ | Pexp_array _ -> true
  | Pexp_construct ({ txt = Longident.Lident "::"; _ }, _) -> true
  | Pexp_construct (_, Some _) -> true
  | Pexp_variant (_, Some _) -> true
  | Pexp_fun _ | Pexp_function _ -> true
  | Pexp_constraint (e, _) -> clearly_structural e
  | _ -> false

let output_markers = [ "emit"; "export"; "merge"; "to_json"; "report"; "dump"; "render"; "write"; "print" ]

let contains_marker name =
  List.exists
    (fun m ->
      let n = String.length name and k = String.length m in
      let rec go i = i + k <= n && (String.equal (String.sub name i k) m || go (i + 1)) in
      go 0)
    output_markers

let hot_list_combinators =
  [
    "mem"; "append"; "map"; "mapi"; "map2"; "filter"; "filteri"; "filter_map"; "concat";
    "concat_map"; "flatten"; "fold_left"; "fold_right"; "iter"; "iteri"; "exists"; "for_all";
    "find"; "find_opt"; "find_map"; "assoc"; "assoc_opt"; "mem_assoc"; "nth"; "init"; "sort";
    "sort_uniq"; "stable_sort";
  ]

let r5_banned p =
  match strip_stdlib p with
  | [ "@" ] -> true
  | [ "List"; m ] -> List.mem m hot_list_combinators
  | _ -> false

(* ------------------------------------------------------------------ *)
(* The walk                                                            *)
(* ------------------------------------------------------------------ *)

type ast = Structure of structure | Signature of signature

let run cfg ast =
  let findings = ref [] in
  let binding_names = ref [] in
  let ancestors = ref [] in
  let flag rule loc message =
    let pos = loc.Location.loc_start in
    findings :=
      {
        Finding.file = cfg.file;
        line = pos.Lexing.pos_lnum;
        col = pos.Lexing.pos_cnum - pos.Lexing.pos_bol;
        rule;
        message;
      }
      :: !findings
  in
  let in_sorted_context parents =
    let rec take n = function x :: rest when n > 0 -> x :: take (n - 1) rest | _ -> [] in
    List.exists (mentions is_sort_path) (take 3 parents)
  in
  (* A punned record field [{ compare; ... }] parses as a bare [compare]
     ident, but it is a projection of an already-chosen comparator, not a
     use of the polymorphic one. *)
  let punned_record_field e parents =
    match parents with
    | { pexp_desc = Pexp_record (fields, _); _ } :: _ ->
        List.exists (fun (_, value) -> value == e) fields
    | _ -> false
  in
  let check_ident e txt parents =
    let p = path_of txt in
    let sp = strip_stdlib p in
    if (not cfg.clock_seam) && r1_banned p then
      flag Finding.R1 e.pexp_loc
        (Printf.sprintf
           "%s is a nondeterminism source; route randomness through Ftr_prng.Seed and time \
            through an injectable clock (Ftr_obs.Span.set_clock, Ftr_exec.Clock)"
           (dotted sp));
    if (match sp with [ "compare" ] -> true | _ -> false) && not (punned_record_field e parents)
    then
      flag Finding.R2 e.pexp_loc
        "bare polymorphic compare; use Float.compare / Int.compare / String.compare or a typed \
         comparator";
    if cfg.hot && r5_banned p then
      flag Finding.R5 e.pexp_loc
        (Printf.sprintf
           "%s allocates or scans a list inside a module tagged `ftr-lint: hot` (allocation-free \
            hot path, docs/MEMORY_LAYOUT.md)"
           (dotted sp))
  in
  let check_apply e fn args parents =
    match fn.pexp_desc with
    | Pexp_ident { txt; _ } -> (
        let sp = strip_stdlib (path_of txt) in
        (match sp with
        | [ op ] when List.mem op poly_ops && List.length args = 2 ->
            if List.exists (fun (_, a) -> clearly_structural a) args then
              flag Finding.R2 e.pexp_loc
                (Printf.sprintf
                   "polymorphic %s on a structured operand; match on the constructor or compare \
                    typed fields instead"
                   op)
        | _ -> ());
        (match sp with
        | [ "Hashtbl"; ("iter" | "fold") ]
          when List.exists contains_marker !binding_names && not (in_sorted_context parents) ->
            flag Finding.R3 e.pexp_loc
              (Printf.sprintf
                 "Hashtbl.%s inside %S feeds an output path in hash-order; sort the entries \
                  first (byte-identical --jobs invariance, docs/PARALLELISM.md)"
                 (List.nth sp 1)
                 (match !binding_names with n :: _ -> n | [] -> "?"))
        | _ -> ()))
    | _ -> ()
  in
  let iter =
    {
      Ast_iterator.default_iterator with
      expr =
        (fun it e ->
          let parents = !ancestors in
          ancestors := e :: parents;
          (match e.pexp_desc with
          | Pexp_ident { txt; _ } -> check_ident e txt parents
          | Pexp_apply (fn, args) -> check_apply e fn args parents
          | _ -> ());
          Ast_iterator.default_iterator.expr it e;
          ancestors := parents);
      value_binding =
        (fun it vb ->
          match vb.pvb_pat.ppat_desc with
          | Ppat_var { txt; _ } ->
              binding_names := txt :: !binding_names;
              Ast_iterator.default_iterator.value_binding it vb;
              binding_names := List.tl !binding_names
          | _ -> Ast_iterator.default_iterator.value_binding it vb);
    }
  in
  (match ast with
  | Structure str -> iter.structure iter str
  | Signature sg -> iter.signature iter sg);
  List.sort_uniq Finding.compare_findings !findings
