(* A finding is one breached rule at one source location. The rule set is
   closed and small on purpose: each rule protects a property the paper's
   reproduction depends on (docs/LINTING.md maps rule -> property).

   Rules come in two stages over the .cmt files dune already produces.
   T1-T6 are typed and interprocedural: they build a call graph over the
   Typedtree and reason about worker-domain reachability, taint, real
   instantiation types, hot-module allocation, hash-order output and
   exports nothing references (typed_rules.ml). D1-D4 are flow-sensitive: per-function control-flow
   graphs over the same Typedtree, a forward dataflow engine run to
   fixpoint, and declarative typestate automata (cfg.ml, dataflow.ml,
   typestate.ml, flow_rules.ml). *)

type rule = T1 | T2 | T3 | T4 | T5 | T6 | D1 | D2 | D3 | D4

type stage = Typed | Flow

let all_stages = [ Typed; Flow ]

(* Bumped whenever a rule's detection logic changes enough that recorded
   reports are no longer comparable run-to-run; surfaced in lint.json. *)
let analyzer_version = "4.2"

let all_rules = [ T1; T2; T3; T4; T5; T6; D1; D2; D3; D4 ]

let rule_id = function
  | T1 -> "T1"
  | T2 -> "T2"
  | T3 -> "T3"
  | T4 -> "T4"
  | T5 -> "T5"
  | T6 -> "T6"
  | D1 -> "D1"
  | D2 -> "D2"
  | D3 -> "D3"
  | D4 -> "D4"

let rule_name = function
  | T1 -> "domain-race"
  | T2 -> "nondeterminism-taint"
  | T3 -> "typed-polymorphic-comparison"
  | T4 -> "typed-hot-path-allocation"
  | T5 -> "typed-unordered-iteration-in-output"
  | T6 -> "unreferenced-export"
  | D1 -> "gate-dominance"
  | D2 -> "resource-typestate"
  | D3 -> "message-protocol"
  | D4 -> "loop-invariant-flag-reload"

let stage_of_rule = function
  | T1 | T2 | T3 | T4 | T5 | T6 -> Typed
  | D1 | D2 | D3 | D4 -> Flow

(* Also the baseline's rule-namespace prefix ("typed:T1", "flow:D2"). *)
let stage_id = function Typed -> "typed" | Flow -> "flow"

let rule_of_id id = List.find_opt (fun r -> String.equal (rule_id r) id) all_rules

type t = { file : string; line : int; col : int; rule : rule; message : string }

let compare_findings a b =
  let c = String.compare a.file b.file in
  if c <> 0 then c
  else
    let c = Int.compare a.line b.line in
    if c <> 0 then c
    else
      let c = Int.compare a.col b.col in
      if c <> 0 then c else String.compare (rule_id a.rule) (rule_id b.rule)

let to_string f =
  Printf.sprintf "%s:%d:%d: %s %s: %s" f.file f.line f.col (rule_id f.rule) (rule_name f.rule)
    f.message

(* Minimal JSON string escaping: the analyzer depends only on
   compiler-libs, so it carries its own two-line encoder rather than
   pulling in Ftr_obs.Json. *)
let json_escape s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\t' -> Buffer.add_string b "\\t"
      | '\r' -> Buffer.add_string b "\\r"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let to_json f =
  Printf.sprintf
    {|{"file":"%s","line":%d,"col":%d,"rule":"%s","name":"%s","stage":"%s","message":"%s"}|}
    (json_escape f.file) f.line f.col (rule_id f.rule) (rule_name f.rule)
    (stage_id (stage_of_rule f.rule))
    (json_escape f.message)
