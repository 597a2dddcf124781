(* Committed baseline: findings accepted as-is, keyed by rule, file and
   the *trimmed text* of the offending source line rather than its line
   number -- edits elsewhere in a file must not invalidate the baseline,
   while any edit to the flagged line itself retires the entry.

   File format, one entry per line (lines starting with '#' and blank
   lines are comments; any other line that does not parse is an error):

     typed:T1<TAB>lib/foo/baz.ml<TAB>Hashtbl.replace table k v
     flow:D2<TAB>lib/foo/bar.ml<TAB>Route.route net ~src ~dst

   The rule field carries its stage namespace ([typed:] or [flow:]) so
   entries from both stages coexist unambiguously in one file. Matching
   is multiset semantics: an entry absorbs exactly one finding with the
   same key, so two identical violations on two lines need two
   entries. *)

type entry = { b_rule : string; b_file : string; b_content : string }
(* [b_rule] is stored in namespaced form, e.g. "typed:T1". *)

let namespaced rule = Finding.(stage_id (stage_of_rule rule)) ^ ":" ^ Finding.rule_id rule

(* The rule field must spell a rule under its own stage's namespace. *)
let valid_rule_field s = List.exists (fun r -> String.equal (namespaced r) s) Finding.all_rules

let key_of ~rule ~file ~content = namespaced rule ^ "\t" ^ file ^ "\t" ^ String.trim content

let key_of_entry e = e.b_rule ^ "\t" ^ e.b_file ^ "\t" ^ String.trim e.b_content

let entry_of_finding ~source_line (f : Finding.t) =
  { b_rule = namespaced f.rule; b_file = f.file; b_content = String.trim source_line }

(* Stage of an entry, for stage-selective regeneration. *)
let entry_stage e =
  if String.starts_with ~prefix:"flow:" e.b_rule then Finding.Flow else Finding.Typed

(* Raised by [load] with "path:line: reason". *)
exception Malformed of string

let parse_line line =
  match String.split_on_char '\t' line with
  | rule :: file :: rest when valid_rule_field rule ->
      Ok { b_rule = rule; b_file = file; b_content = String.trim (String.concat "\t" rest) }
  | rule :: _ :: _ -> Error (Printf.sprintf "unknown rule id %S" rule)
  | _ -> Error "expected STAGE:RULE<TAB>file<TAB>source line"

let load path =
  if not (Sys.file_exists path) then []
  else
    In_channel.with_open_bin path In_channel.input_all
    |> String.split_on_char '\n'
    |> List.mapi (fun i line ->
           if String.equal (String.trim line) "" || line.[0] = '#' then None
           else
             match parse_line line with
             | Ok e -> Some e
             | Error why -> raise (Malformed (Printf.sprintf "%s:%d: %s" path (i + 1) why)))
    |> List.filter_map Fun.id

let save path entries =
  let oc = open_out_bin path in
  output_string oc "# ftr_lint baseline: STAGE:RULE<TAB>file<TAB>trimmed source line\n";
  output_string oc "# Regenerate with: ftr_lint <dirs> --stage all --update-baseline\n";
  List.iter
    (fun e -> Printf.fprintf oc "%s\t%s\t%s\n" e.b_rule e.b_file e.b_content)
    entries;
  close_out oc

(* Split findings into (fresh, baselined); returns the count of entries
   that matched nothing so the driver can report a stale baseline. *)
let apply entries findings =
  let budget = Hashtbl.create 16 in
  List.iter
    (fun e ->
      let k = key_of_entry e in
      Hashtbl.replace budget k (1 + Option.value ~default:0 (Hashtbl.find_opt budget k)))
    entries;
  let fresh, baselined =
    List.partition
      (fun ((f : Finding.t), source_line) ->
        let k = key_of ~rule:f.rule ~file:f.file ~content:source_line in
        match Hashtbl.find_opt budget k with
        | Some n when n > 0 ->
            Hashtbl.replace budget k (n - 1);
            false
        | Some _ | None -> true)
      findings
  in
  let stale = Hashtbl.fold (fun _ n acc -> acc + n) budget 0 in
  (fresh, List.length baselined, stale)
