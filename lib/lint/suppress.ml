(* In-source lint directives. Directives live in comments, which the
   Typedtree drops, so they are recovered from the raw text with a line
   scan; a directive applies to findings on its own line or on the line
   directly below it (the conventional "comment above the offending
   expression" placement).

   Grammar: the marker word [ftr-lint] followed by a colon, then one
   directive -- [disable T1 D2 <justification>] (this line and the next),
   [disable-file T2 <justification>] (whole file), or [hot
   <justification>] (opts the module into T4 and D4). Rule ids may be
   separated by spaces or commas; collection stops at the first token
   that is not a rule id, so a one-line justification can follow without
   any closing marker. The retired syntactic ids R1 R2 R3 R5 are skipped
   without stopping the collection, so an old header such as
   [disable-file R1 T2] still disables T2. [all] stands for every rule.
   (The examples above avoid the literal marker spelling: the scan is
   purely textual, and this module must not tag itself.) *)

let marker = "ftr-lint:"

type t = {
  line_rules : (int, Finding.rule list) Hashtbl.t; (* disable, keyed by source line *)
  mutable file_rules : Finding.rule list; (* disable-file *)
  mutable hot : bool; (* module participates in T4 and D4 *)
}

let find_sub s sub =
  let n = String.length s and m = String.length sub in
  let rec go i =
    if i + m > n then None else if String.equal (String.sub s i m) sub then Some i else go (i + 1)
  in
  go 0

let tokens_after s pos =
  let rest = String.sub s pos (String.length s - pos) in
  String.split_on_char ' ' rest
  |> List.concat_map (String.split_on_char ',')
  |> List.map String.trim
  |> List.filter (fun t -> not (String.equal t ""))

let retired_ids = [ "R1"; "R2"; "R3"; "R5" ]

(* Leading rule ids of a token list; stops at the first token that is
   neither a rule id nor a retired one. *)
let rec take_rules = function
  | [] -> []
  | "all" :: _ -> Finding.all_rules
  | t :: rest when List.mem t retired_ids -> take_rules rest
  | t :: rest -> (
      match Finding.rule_of_id t with Some r -> r :: take_rules rest | None -> [])

let scan source =
  let t = { line_rules = Hashtbl.create 8; file_rules = []; hot = false } in
  List.iteri
    (fun i line ->
      match find_sub line marker with
      | None -> ()
      | Some pos -> (
          let lineno = i + 1 in
          match tokens_after line (pos + String.length marker) with
          | "hot" :: _ -> t.hot <- true
          | "disable" :: rest ->
              let rules = take_rules rest in
              if rules <> [] then
                Hashtbl.replace t.line_rules lineno
                  (rules @ Option.value ~default:[] (Hashtbl.find_opt t.line_rules lineno))
          | "disable-file" :: rest -> t.file_rules <- take_rules rest @ t.file_rules
          | _ -> ()))
    (String.split_on_char '\n' source);
  t

let hot t = t.hot

let mem (rule : Finding.rule) rs = List.exists (fun r -> r = rule) rs

let on_line t line rule =
  match Hashtbl.find_opt t.line_rules line with Some rs -> mem rule rs | None -> false

(* Suppressed when file-disabled, or a directive sits on the finding's
   line or on the line above it. *)
let suppressed t ~line rule =
  mem rule t.file_rules || on_line t line rule || (line > 1 && on_line t (line - 1) rule)
