(* A finding is one breached rule at one source location. The rule set is
   closed and small on purpose: each rule protects a property the paper's
   reproduction depends on (docs/LINTING.md maps rule -> property).

   Rules come in three stages. R1-R3 and R5 are syntactic (there is no
   R4: telemetry gating is D1's): one Parsetree walk per file, no types,
   heuristics tuned to this tree's idioms (rules.ml).
   T1-T4 are typed and interprocedural: they load the .cmt files dune
   already produces, build a call graph over the Typedtree and reason
   about worker-domain reachability, taint and real instantiation types
   (typed_rules.ml). D1-D4 are flow-sensitive: per-function control-flow
   graphs over the same Typedtree, a forward dataflow engine run to
   fixpoint, and declarative typestate automata (cfg.ml, dataflow.ml,
   typestate.ml, flow_rules.ml). *)

type rule = R1 | R2 | R3 | R5 | T1 | T2 | T3 | T4 | D1 | D2 | D3 | D4

type stage = Syntactic | Typed | Flow

(* Bumped whenever a rule's detection logic changes enough that recorded
   reports are no longer comparable run-to-run; surfaced in lint.json. *)
let analyzer_version = "3.1"

let all_rules = [ R1; R2; R3; R5; T1; T2; T3; T4; D1; D2; D3; D4 ]

let rule_id = function
  | R1 -> "R1"
  | R2 -> "R2"
  | R3 -> "R3"
  | R5 -> "R5"
  | T1 -> "T1"
  | T2 -> "T2"
  | T3 -> "T3"
  | T4 -> "T4"
  | D1 -> "D1"
  | D2 -> "D2"
  | D3 -> "D3"
  | D4 -> "D4"

let rule_name = function
  | R1 -> "nondeterminism-source"
  | R2 -> "polymorphic-comparison"
  | R3 -> "unordered-iteration-in-output"
  | R5 -> "hot-path-allocation"
  | T1 -> "domain-race"
  | T2 -> "nondeterminism-taint"
  | T3 -> "typed-polymorphic-comparison"
  | T4 -> "typed-hot-path-allocation"
  | D1 -> "gate-dominance"
  | D2 -> "resource-typestate"
  | D3 -> "message-protocol"
  | D4 -> "loop-invariant-flag-reload"

let stage_of_rule = function
  | R1 | R2 | R3 | R5 -> Syntactic
  | T1 | T2 | T3 | T4 -> Typed
  | D1 | D2 | D3 | D4 -> Flow

let stage_id = function Syntactic -> "syntactic" | Typed -> "typed" | Flow -> "flow"

(* The baseline's rule-namespace prefix, so entries from all stages
   coexist in one file without ambiguity (baseline.ml). *)
let stage_namespace = function Syntactic -> "syn" | Typed -> "typed" | Flow -> "flow"

let rule_of_id = function
  | "R1" -> Some R1
  | "R2" -> Some R2
  | "R3" -> Some R3
  | "R5" -> Some R5
  | "T1" -> Some T1
  | "T2" -> Some T2
  | "T3" -> Some T3
  | "T4" -> Some T4
  | "D1" -> Some D1
  | "D2" -> Some D2
  | "D3" -> Some D3
  | "D4" -> Some D4
  | _ -> None

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
