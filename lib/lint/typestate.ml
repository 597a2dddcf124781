(* Declarative lifecycle automata for rule D2 (resource typestate).

   Each protocol names its acquire/release/validate/use operations as
   dotted-path suffix patterns (matched against Cfg.call paths after
   alias normalisation, so ["Snapshot"; "load"] matches
   [Ftr_core.Snapshot.load], [Ftr_core__Snapshot.load] and a local
   [Snapshot.load] alike). Two automaton shapes cover the repo's
   protocols:

   - [Must_release]: after the acquire, every path to function exit must
     pass a release. Instances are keyed by the let-bound variable when
     the acquire's result is bound, or by the acquire site itself for
     unit-returning acquires (the Events sink). A release call that
     mentions the bound variable releases that instance; a release with
     no identifiable operand releases every anonymous instance of the
     protocol (conservative in the non-flagging direction).

   - [Validate_before_use]: the acquire produces a value in state
     Unvalidated; passing it to a validator moves it to Validated;
     passing it to a use/sink while still Unvalidated is the finding.
     Reaching exit unvalidated is NOT flagged — only actual use is
     (a load-validate helper returning the network is legitimate).

   [p_acquire_label_false] restricts the acquire to applications that
   pass a literal [false] for the named (optional) label —
   [Snapshot.load ~validate:false] is an acquisition of an unchecked
   network, a default or non-literal [~validate] argument is not.
   [p_acquire_skip_none] exempts applications passing a literal [None]:
   [Events.set_sink None] uninstalls the sink rather than installing
   one, so it is no acquisition. *)

type kind = Must_release | Validate_before_use

type proto = {
  p_id : string; (* short id used in messages, e.g. "events-sink" *)
  p_kind : kind;
  p_acquire : string list list; (* suffix patterns *)
  p_acquire_label_false : string option;
  p_acquire_skip_none : bool;
  p_release : string list list; (* Must_release: releases; Validate_before_use: validators *)
  p_use : string list list; (* Validate_before_use only: the guarded sinks *)
  p_leak_msg : string;
  p_use_msg : string;
}

let protocols =
  [
    {
      p_id = "snapshot-unvalidated";
      p_kind = Validate_before_use;
      p_acquire = [ [ "Snapshot"; "load" ] ];
      p_acquire_label_false = Some "validate";
      p_acquire_skip_none = false;
      p_release = [ [ "Check"; "snapshot" ]; [ "Csr"; "validate" ] ];
      p_use =
        [ [ "Route"; "route" ]; [ "Route"; "route_lockstep" ]; [ "Route_batch"; "run" ] ];
      p_leak_msg = "";
      p_use_msg =
        "network loaded with Snapshot.load ~validate:false is routed before flowing through \
         Check.snapshot/Csr.validate; validate it first or load with the default ~validate:true";
    };
    {
      p_id = "events-sink";
      p_kind = Must_release;
      p_acquire = [ [ "Events"; "set_sink" ] ];
      p_acquire_label_false = None;
      p_acquire_skip_none = true;
      p_release = [ [ "Events"; "flush_sink" ]; [ "Events"; "install_exit_flush" ] ];
      p_use = [];
      p_leak_msg =
        "programmatic Events sink installed with set_sink can exit without a flush on this \
         path; call Events.flush_sink or register Events.install_exit_flush \
         (docs/OBSERVABILITY.md)";
      p_use_msg = "";
    };
  ]

(* Suffix match of a normalised call path against one pattern. *)
let matches_pattern parts pattern =
  let rp = List.rev parts and rq = List.rev pattern in
  let rec go rp rq =
    match (rp, rq) with
    | _, [] -> true
    | p :: rp', q :: rq' -> (String.equal p q || Typed_rules.module_head p q) && go rp' rq'
    | [], _ :: _ -> false
  in
  go rp rq

let matches parts patterns = List.exists (matches_pattern parts) patterns

let acquires p (c : Cfg.call) =
  matches c.Cfg.c_parts p.p_acquire
  && not (p.p_acquire_skip_none && List.exists (fun (a : Cfg.arg) -> a.Cfg.a_none) c.Cfg.c_args)
  &&
  match p.p_acquire_label_false with
  | None -> true
  | Some label ->
      List.exists
        (fun (a : Cfg.arg) ->
          String.equal a.Cfg.a_label label
          && match a.Cfg.a_bool with Some b -> not b | None -> false)
        c.Cfg.c_args
