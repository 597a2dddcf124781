(* The flow-sensitive rule engine: per-unit analysis over the CFGs of
   cfg.ml, run through the dataflow engine of dataflow.ml.

   D1 gate-dominance        -- a [Metrics]/[Events] write must be
      dominated by a [Flag.enabled] check on every CFG path from
      function entry; [Tracing] step writers may alternatively be
      dominated by a [Tracing.is_live]/[Tracing.recording] check (the
      null-trace guard — [begin_route] hands out null traces when the
      flag is off, so liveness implies the flag was consulted).
      Closures inherit the fact at their definition site: a callback
      built under [if obs then ...] keeps the gate (route.ml's
      [on_hop]). This is the tree's only telemetry-gating rule.
   D2 resource-typestate    -- the lifecycle automata of typestate.ml,
      checked path-sensitively: scratch restored on every path after
      borrow, [Snapshot.load ~validate:false] results validated before
      routing, programmatic [Events] sinks flushed.
   D3 message-protocol      -- every [Ftr_p2p.Message.payload]
      constructor must be explicitly headed in some dispatch match
      outside the Message unit itself when any dispatch carries a
      catch-all (the catch-all would silently swallow a new
      constructor); and mailbox envelopes must move through
      [Mailbox.post] — raw mutation of envelope-carrying storage
      outside lib/svc/mailbox.ml / lib/svc/service.ml is flagged.
      Constructor coverage is a whole-corpus fact, so the per-unit pass
      only collects declarations/heads/catch-alls; the driver merges
      them ([d3_findings]).
   D4 loop-invariant-flag-reload -- in a [ftr-lint: hot] module, a
      [Flag.enabled] re-read inside a loop whose body provably does not
      write the flag (no set_mode/with_mode/suppress_in_domain). *)

open Typedtree

let contains s sub = Suppress.find_sub s sub <> None

let finding rule (l : Cfg.loc) message =
  { Finding.file = l.Cfg.l_file; line = l.Cfg.l_line; col = l.Cfg.l_col; rule; message }

(* ------------------------------------------------------------------ *)
(* Path normalisation: stdlib stripping + unit-level module aliases    *)
(* ------------------------------------------------------------------ *)

(* [module T = Ftr_obs.Tracing] makes every [T.is_live] print with head
   [T]; expanding the alias keeps the rule tables spelling-independent. *)
let collect_aliases (u : Cmt_loader.unit_info) =
  let aliases : (string, string list) Hashtbl.t = Hashtbl.create 8 in
  let add name (me : module_expr) =
    let rec target (me : module_expr) =
      match me.mod_desc with
      | Tmod_ident (p, _) -> Some (Type_probe.strip_stdlib (String.split_on_char '.' (Path.name p)))
      | Tmod_constraint (me, _, _, _) -> target me
      | _ -> None
    in
    match target me with Some parts -> Hashtbl.replace aliases name parts | None -> ()
  in
  let it =
    {
      Tast_iterator.default_iterator with
      module_binding =
        (fun it mb ->
          (match mb.mb_name.txt with Some n -> add n mb.mb_expr | None -> ());
          Tast_iterator.default_iterator.module_binding it mb);
    }
  in
  it.structure it u.structure;
  aliases

let norm_parts aliases p =
  let parts = Type_probe.strip_stdlib (String.split_on_char '.' (Path.name p)) in
  match parts with
  | m :: rest -> ( match Hashtbl.find_opt aliases m with Some exp -> exp @ rest | None -> parts)
  | [] -> parts

let is_trace_live parts =
  match List.rev parts with
  | ("is_live" | "recording") :: m :: _ -> Typed_rules.module_head m "Tracing"
  | _ -> false

(* ------------------------------------------------------------------ *)
(* Gate variables (both families, one level of fixpoint)               *)
(* ------------------------------------------------------------------ *)

(* Stamps of non-function let-bound names whose RHS consults a gate:
   [let obs = Flag.enabled ()], [let tracing = Flag.enabled () &&
   Tracing.is_live tr], and one-step chains of those. *)
let collect_gate_vars aliases (u : Cmt_loader.unit_info) =
  let vars : (string, Cfg.gates) Hashtbl.t = Hashtbl.create 16 in
  let gates_of_expr e =
    let acc = ref Cfg.no_gates in
    let it =
      {
        Tast_iterator.default_iterator with
        expr =
          (fun it e ->
            (match e.exp_desc with
            | Texp_ident (p, _, _) ->
                let parts = norm_parts aliases p in
                if Cfg.is_flag_enabled parts then acc := { !acc with Cfg.g_flag = true };
                if is_trace_live parts then acc := { !acc with Cfg.g_trace = true };
                (match p with
                | Path.Pident id -> (
                    match Hashtbl.find_opt vars (Ident.unique_name id) with
                    | Some g -> acc := Cfg.join_gates !acc g
                    | None -> ())
                | _ -> ())
            | _ -> ());
            Tast_iterator.default_iterator.expr it e);
      }
    in
    it.expr it e;
    !acc
  in
  let round () =
    let changed = ref false in
    let it =
      {
        Tast_iterator.default_iterator with
        value_binding =
          (fun it vb ->
            (match (vb.vb_pat.pat_desc, vb.vb_expr.exp_desc) with
            | Tpat_var (id, _), rhs when (match rhs with Texp_function _ -> false | _ -> true)
              ->
                let g = gates_of_expr vb.vb_expr in
                let key = Ident.unique_name id in
                let old = Option.value ~default:Cfg.no_gates (Hashtbl.find_opt vars key) in
                let merged = Cfg.join_gates old g in
                if merged <> old then begin
                  Hashtbl.replace vars key merged;
                  changed := true
                end
            | _ -> ());
            Tast_iterator.default_iterator.value_binding it vb);
      }
    in
    it.structure it u.structure;
    !changed
  in
  let rounds = ref 0 in
  while round () && !rounds < 5 do
    incr rounds
  done;
  (vars, gates_of_expr)

(* ------------------------------------------------------------------ *)
(* D1: gate dominance                                                  *)
(* ------------------------------------------------------------------ *)

(* Writers that allocate (or do work) at the call site when FTR_OBS is
   off, split by which gate family excuses them. Config setters
   ([set_mode], [reset], [set_seed], ...) and self-gating entry points
   ([begin_route] consults [recording] internally and hands back a null
   trace) are deliberately absent. *)
let d1_writer parts =
  match List.rev parts with
  | ("incr" | "incr_by" | "set_gauge" | "observe" | "observe_int") :: m :: _
    when Typed_rules.module_head m "Metrics" ->
      Some `Flag
  | "emit" :: m :: _ when Typed_rules.module_head m "Events" -> Some `Flag
  | ("set_context" | "hop" | "candidate" | "backtrack" | "reroute" | "finish" | "push_step"
    | "note_time")
    :: m
    :: _
    when Typed_rules.module_head m "Tracing" ->
      Some `Trace
  | _ -> None

module D1_dom = struct
  type fact = Cfg.gates

  let equal (a : fact) b = a = b
  let join (a : Cfg.gates) (b : Cfg.gates) =
    { Cfg.g_flag = a.Cfg.g_flag && b.Cfg.g_flag; g_trace = a.Cfg.g_trace && b.Cfg.g_trace }

  let event ev (fact : fact) =
    match ev with
    | Cfg.Call c -> (
        match List.rev c.Cfg.c_parts with
        | "set_mode" :: m :: _ when Typed_rules.module_head m "Flag" ->
            let lit =
              match c.Cfg.c_args with a :: _ -> a.Cfg.a_bool | [] -> None
            in
            { fact with Cfg.g_flag = (match lit with Some b -> b | None -> false) }
        | ("restore_mode" | "suppress_in_domain") :: m :: _ when Typed_rules.module_head m "Flag"
          ->
            { fact with Cfg.g_flag = false }
        | _ -> fact)
    | Cfg.Bind _ | Cfg.Closure _ -> fact

  let branch (g : Cfg.gates) ~taken (fact : fact) =
    if taken then Cfg.join_gates fact g else fact
end

module D1_flow = Dataflow.Forward (D1_dom)

(* ------------------------------------------------------------------ *)
(* D2: typestate                                                       *)
(* ------------------------------------------------------------------ *)

module D2_dom = struct
  type state = Held | Released | Unvalidated | Validated
  type owner = Anon | Var of string

  type inst = { i_proto : int; i_owner : owner; i_loc : Cfg.loc; i_state : state }

  type fact = inst list (* sorted by key *)

  let compare_owner a b =
    match (a, b) with
    | Anon, Anon -> 0
    | Anon, Var _ -> -1
    | Var _, Anon -> 1
    | Var x, Var y -> String.compare x y

  let compare_loc (a : Cfg.loc) (b : Cfg.loc) =
    let c = String.compare a.Cfg.l_file b.Cfg.l_file in
    if c <> 0 then c
    else
      let c = Int.compare a.Cfg.l_line b.Cfg.l_line in
      if c <> 0 then c else Int.compare a.Cfg.l_col b.Cfg.l_col

  let compare_inst a b =
    let c = Int.compare a.i_proto b.i_proto in
    if c <> 0 then c
    else
      let c = compare_owner a.i_owner b.i_owner in
      if c <> 0 then c else compare_loc a.i_loc b.i_loc

  let sort = List.sort compare_inst

  let state_rank = function Held -> 0 | Released -> 1 | Unvalidated -> 2 | Validated -> 3

  let equal_inst a b =
    compare_inst a b = 0 && Int.equal (state_rank a.i_state) (state_rank b.i_state)

  let equal (a : fact) b = List.equal equal_inst a b

  let worse a b =
    match (a, b) with
    | Held, _ | _, Held -> Held
    | Unvalidated, _ | _, Unvalidated -> Unvalidated
    | Released, Released -> Released
    | Validated, x | x, Validated -> x

  let rec join (a : fact) (b : fact) =
    match (a, b) with
    | [], r | r, [] -> r
    | x :: a', y :: b' ->
        let c = compare_inst x y in
        if c = 0 then { x with i_state = worse x.i_state y.i_state } :: join a' b'
        else if c < 0 then x :: join a' b'
        else y :: join a b'

  let protocols = Array.of_list Typestate.protocols

  let event ev (fact : fact) =
    match ev with
    | Cfg.Closure _ -> fact
    | Cfg.Bind { bv_id; bv_rhs = Some l; _ } ->
        (* Rebind the acquisition the RHS just produced to the variable. *)
        if List.exists (fun i -> i.i_owner = Anon && i.i_loc = l) fact then
          sort
            (List.map
               (fun i -> if i.i_owner = Anon && i.i_loc = l then { i with i_owner = Var bv_id } else i)
               fact)
        else fact
    | Cfg.Bind _ -> fact
    | Cfg.Call c ->
        let fact = ref fact in
        Array.iteri
          (fun pi (p : Typestate.proto) ->
            let idents =
              List.filter_map (fun (a : Cfg.arg) -> a.Cfg.a_ident) c.Cfg.c_args
            in
            if Typestate.matches c.Cfg.c_parts p.Typestate.p_release then begin
              let to_state =
                match p.Typestate.p_kind with
                | Typestate.Must_release -> Released
                | Typestate.Validate_before_use -> Validated
              in
              let by_ident i =
                match i.i_owner with Var v -> List.mem v idents | Anon -> false
              in
              let any_by_ident = List.exists (fun i -> i.i_proto = pi && by_ident i) !fact in
              fact :=
                List.map
                  (fun i ->
                    if i.i_proto = pi && (by_ident i || not any_by_ident) then
                      { i with i_state = to_state }
                    else i)
                  !fact
            end;
            if Typestate.acquires p c then begin
              let init =
                match p.Typestate.p_kind with
                | Typestate.Must_release -> Held
                | Typestate.Validate_before_use -> Unvalidated
              in
              let i = { i_proto = pi; i_owner = Anon; i_loc = c.Cfg.c_loc; i_state = init } in
              fact := sort (i :: List.filter (fun j -> compare_inst i j <> 0) !fact)
            end)
          protocols;
        !fact

  let branch _ ~taken:_ fact = fact
end

module D2_flow = Dataflow.Forward (D2_dom)

(* ------------------------------------------------------------------ *)
(* D3: protocol facts (merged across units by the driver)              *)
(* ------------------------------------------------------------------ *)

type d3 = {
  d3_ctors : (string * Cfg.loc) list; (* payload constructor declarations *)
  d3_explicit : string list; (* constructors explicitly headed in a dispatch *)
  d3_catchall : Cfg.loc list; (* dispatch sites with a wildcard arm *)
}

let is_message_unit modname = Typed_rules.module_head modname "Message"

(* The scrutinee type of a payload dispatch, under any spelling. *)
let is_payload_type (ty : Types.type_expr) =
  match Types.get_desc ty with
  | Types.Tconstr (p, _, _) -> (
      match List.rev (String.split_on_char '.' (Path.name p)) with
      | "payload" :: m :: _ -> Typed_rules.module_head m "Message"
      | [ "payload" ] -> true (* inside the Message unit itself; excluded by scope *)
      | _ -> false)
  | _ -> false

(* Top-level constructor heads of one arm; wildcard/variable arms count
   as a catch-all. Nested patterns (payload arguments) are not heads. *)
let rec pattern_heads : type k. k general_pattern -> string list * bool =
 fun p ->
  match p.pat_desc with
  | Tpat_construct (_, cd, _, _) -> ([ cd.Types.cstr_name ], false)
  | Tpat_or (a, b, _) ->
      let ha, wa = pattern_heads a and hb, wb = pattern_heads b in
      (ha @ hb, wa || wb)
  | Tpat_alias (p, _, _) -> pattern_heads p
  | Tpat_value v -> pattern_heads (v :> value general_pattern)
  | Tpat_var _ | Tpat_any -> ([], true)
  | _ -> ([], false)

let loc_to (file : string) (loc : Location.t) =
  let pos = loc.Location.loc_start in
  let f = if String.equal pos.Lexing.pos_fname "" then file else pos.Lexing.pos_fname in
  { Cfg.l_file = f; l_line = pos.Lexing.pos_lnum; l_col = pos.Lexing.pos_cnum - pos.Lexing.pos_bol }

let collect_d3 (u : Cmt_loader.unit_info) =
  let ctors = ref [] and explicit = ref [] and catchall = ref [] in
  let in_message_module = ref (is_message_unit u.modname) in
  let record_cases : type k. string -> Location.t -> k case list -> unit =
   fun file loc cases ->
    let heads, wild =
      List.fold_left
        (fun (hs, w) (c : k case) ->
          let h, cw = pattern_heads c.c_lhs in
          (* A guarded wildcard still falls through, but a guarded arm
             never completes coverage either way; count heads only. *)
          (hs @ h, w || (cw && Option.is_none c.c_guard)))
        ([], false) cases
    in
    explicit := heads @ !explicit;
    if wild then catchall := loc_to file loc :: !catchall
  in
  let expr (it : Tast_iterator.iterator) (e : expression) =
    (if not !in_message_module then
       match e.exp_desc with
       | Texp_match (scrut, cases, _) when is_payload_type scrut.exp_type ->
           record_cases u.source e.exp_loc cases
       | Texp_function { cases = (_ :: _ :: _ as cases); _ }
         when is_payload_type (List.hd cases).c_lhs.pat_type ->
           record_cases u.source e.exp_loc cases
       | _ -> ());
    Tast_iterator.default_iterator.expr it e
  in
  let structure_item (it : Tast_iterator.iterator) (si : structure_item) =
    match si.str_desc with
    | Tstr_type (_, tds) ->
        List.iter
          (fun (td : type_declaration) ->
            if
              String.equal td.typ_name.txt "payload"
              && (!in_message_module || is_message_unit u.modname)
            then
              match td.typ_kind with
              | Ttype_variant cds ->
                  List.iter
                    (fun (cd : constructor_declaration) ->
                      ctors := (cd.cd_name.txt, loc_to u.source cd.cd_loc) :: !ctors)
                    cds
              | _ -> ())
          tds;
        Tast_iterator.default_iterator.structure_item it si
    | Tstr_module mb ->
        let saved = !in_message_module in
        (match mb.mb_name.txt with
        | Some n when Typed_rules.module_head n "Message" -> in_message_module := true
        | _ -> ());
        Tast_iterator.default_iterator.structure_item it si;
        in_message_module := saved
    | _ -> Tast_iterator.default_iterator.structure_item it si
  in
  let it = { Tast_iterator.default_iterator with expr; structure_item } in
  it.structure it u.structure;
  {
    d3_ctors = List.rev !ctors;
    d3_explicit = List.sort_uniq String.compare !explicit;
    d3_catchall = List.rev !catchall;
  }

(* Coordinator-side D3a: a constructor no dispatch heads explicitly,
   while some dispatch carries a catch-all that would swallow it. *)
let d3_findings (per_unit : d3 list) =
  let explicit =
    List.sort_uniq String.compare (List.concat_map (fun d -> d.d3_explicit) per_unit)
  in
  let catchalls = List.concat_map (fun d -> d.d3_catchall) per_unit in
  let ctors = List.concat_map (fun d -> d.d3_ctors) per_unit in
  match catchalls with
  | [] -> []
  | ca :: _ ->
      List.filter_map
        (fun (name, loc) ->
          if List.mem name explicit then None
          else
            Some
              (finding Finding.D3 loc
                 (Printf.sprintf
                    "payload constructor %s is never matched explicitly in any dispatch; the \
                     catch-all arm at %s:%d would silently swallow it — head it explicitly in \
                     Actor's dispatch"
                    name ca.Cfg.l_file ca.Cfg.l_line)))
        ctors

(* ------------------------------------------------------------------ *)
(* D3b: raw mutation of envelope-carrying storage                      *)
(* ------------------------------------------------------------------ *)

let sanctioned_mailbox_files = [ "lib/svc/mailbox.ml"; "lib/svc/service.ml" ]

let rec type_mentions_envelope depth (ty : Types.type_expr) =
  depth > 0
  &&
  match Types.get_desc ty with
  | Types.Tconstr (p, args, _) ->
      (match List.rev (String.split_on_char '.' (Path.name p)) with
      | "envelope" :: m :: _ -> Typed_rules.module_head m "Message"
      | _ -> false)
      || List.exists (type_mentions_envelope (depth - 1)) args
  | Types.Ttuple ts -> List.exists (type_mentions_envelope (depth - 1)) ts
  | _ -> false

let is_raw_mutator parts =
  match List.rev parts with
  | ":=" :: _ -> true
  | ("add" | "push") :: m :: _ when Typed_rules.module_head m "Queue" || Typed_rules.module_head m "Stack"
    ->
      true
  | ("add" | "replace") :: m :: _ when Typed_rules.module_head m "Hashtbl" -> true
  | ("set" | "unsafe_set") :: m :: _ when Typed_rules.module_head m "Array" -> true
  | _ -> false

let collect_d3b aliases (u : Cmt_loader.unit_info) =
  if List.exists (fun sfx -> Filename.check_suffix u.source sfx) sanctioned_mailbox_files then []
  else begin
    let acc = ref [] in
    let flag loc =
      acc :=
        finding Finding.D3 (loc_to u.source loc)
          "raw mutation of Message.envelope-carrying storage outside Mailbox; sends must go \
           through Mailbox.post so delivery order stays a pure function of (seed, time, src, \
           seq) (docs/SERVICE.md)"
        :: !acc
    in
    let expr (it : Tast_iterator.iterator) (e : expression) =
      (match e.exp_desc with
      | Texp_apply ({ exp_desc = Texp_ident (p, _, _); _ }, args)
        when is_raw_mutator (norm_parts aliases p) ->
          if
            List.exists
              (fun (_, a) ->
                match a with
                | Some (a : expression) -> type_mentions_envelope 5 a.exp_type
                | None -> false)
              args
          then flag e.exp_loc
      | Texp_setfield (_, _, ld, v) ->
          if type_mentions_envelope 5 v.exp_type || type_mentions_envelope 5 ld.Types.lbl_arg
          then flag e.exp_loc
      | _ -> ());
      Tast_iterator.default_iterator.expr it e
    in
    let it = { Tast_iterator.default_iterator with expr } in
    it.structure it u.structure;
    List.rev !acc
  end

(* ------------------------------------------------------------------ *)
(* Per-unit driver                                                     *)
(* ------------------------------------------------------------------ *)

let toplevel_cfgs ctx (u : Cmt_loader.unit_info) =
  let acc = ref [] in
  let rec items its = List.iter item its
  and item (it : structure_item) =
    match it.str_desc with
    | Tstr_value (_, vbs) ->
        List.iter (fun (vb : value_binding) -> acc := Cfg.build ctx vb.vb_expr :: !acc) vbs
    | Tstr_eval (e, _) -> acc := Cfg.build ctx e :: !acc
    | Tstr_module mb -> module_binding mb
    | Tstr_recmodule mbs -> List.iter module_binding mbs
    | _ -> ()
  and module_binding (mb : module_binding) =
    let rec of_expr (me : module_expr) =
      match me.mod_desc with
      | Tmod_structure str -> items str.str_items
      | Tmod_constraint (me, _, _, _) -> of_expr me
      | _ -> ()
    in
    of_expr mb.mb_expr
  in
  items u.structure.str_items;
  List.rev !acc

let analyze_unit ~hot (u : Cmt_loader.unit_info) =
  let aliases = collect_aliases u in
  let _gate_vars, gates_of_expr = collect_gate_vars aliases u in
  let ctx =
    { Cfg.file = u.source; norm_parts = norm_parts aliases; cond_gates = gates_of_expr }
  in
  let in_obs = contains u.source "lib/obs/" in
  let findings = ref [] in
  let add f = findings := f :: !findings in
  let rec analyze_cfg ~(d1 : Cfg.gates) (cfg : Cfg.t) =
    (* D1 (also drives recursion into closures with inherited facts). *)
    let d1_facts = D1_flow.solve cfg ~entry_fact:d1 in
    let closures = ref [] in
    D1_flow.iter_events cfg d1_facts (fun ev fact ->
        match ev with
        | Cfg.Closure cl -> closures := (cl, fact) :: !closures
        | Cfg.Call c when not in_obs -> (
            match d1_writer c.Cfg.c_parts with
            | Some `Flag when not fact.Cfg.g_flag ->
                add
                  (finding Finding.D1 c.Cfg.c_loc
                     (Printf.sprintf
                        "telemetry write %s is not dominated by a Flag.enabled check on every \
                         path from function entry; guard it so FTR_OBS=0 stays \
                         allocation-free (docs/OBSERVABILITY.md)"
                        (String.concat "." c.Cfg.c_parts)))
            | Some `Trace when not (fact.Cfg.g_flag || fact.Cfg.g_trace) ->
                add
                  (finding Finding.D1 c.Cfg.c_loc
                     (Printf.sprintf
                        "trace write %s is not dominated by a Flag.enabled or \
                         Tracing.is_live check on every path from function entry; guard it \
                         (docs/OBSERVABILITY.md)"
                        (String.concat "." c.Cfg.c_parts)))
            | _ -> ())
        | _ -> ());
    (* D2: typestate, fresh per function body. *)
    let d2_facts = D2_flow.solve cfg ~entry_fact:[] in
    D2_flow.iter_events cfg d2_facts (fun ev fact ->
        match ev with
        | Cfg.Call c ->
            Array.iteri
              (fun pi (p : Typestate.proto) ->
                if p.Typestate.p_kind = Typestate.Validate_before_use
                   && Typestate.matches c.Cfg.c_parts p.Typestate.p_use
                then
                  List.iter
                    (fun (a : Cfg.arg) ->
                      match a.Cfg.a_ident with
                      | Some v
                        when List.exists
                               (fun (i : D2_dom.inst) ->
                                 Int.equal i.D2_dom.i_proto pi
                                 && (match i.D2_dom.i_owner with
                                    | D2_dom.Var w -> String.equal w v
                                    | D2_dom.Anon -> false)
                                 &&
                                 match i.D2_dom.i_state with
                                 | D2_dom.Unvalidated -> true
                                 | _ -> false)
                               fact ->
                          add (finding Finding.D2 c.Cfg.c_loc p.Typestate.p_use_msg)
                      | _ -> ())
                    c.Cfg.c_args)
              (* ftr-lint: disable T1 -- read-only: nothing writes the protocol table *)
              D2_dom.protocols
        | _ -> ());
    (match D2_flow.exit_fact cfg d2_facts with
    | None -> ()
    | Some at_exit ->
        List.iter
          (fun (i : D2_dom.inst) ->
            if i.D2_dom.i_state = D2_dom.Held then
              (* ftr-lint: disable T1 -- read-only: nothing writes the protocol table *)
              let p = D2_dom.protocols.(i.D2_dom.i_proto) in
              add (finding Finding.D2 i.D2_dom.i_loc p.Typestate.p_leak_msg))
          at_exit);
    (* D4: loop-invariant flag reloads, hot modules only. *)
    if hot then
      List.iter
        (fun (lp : Cfg.loop) ->
          if not lp.Cfg.lp_dirty then
            List.iter
              (fun l ->
                add
                  (finding Finding.D4 l
                     "Flag.enabled is re-read inside a hot loop and is provably loop-invariant \
                      (the body never calls set_mode/with_mode/suppress_in_domain); hoist the \
                      read above the loop"))
              (List.rev lp.Cfg.lp_flag_reads))
        cfg.Cfg.loops;
    (* Recurse into closures with the D1 fact at their definition. *)
    List.iter (fun (cl, fact) -> analyze_cfg ~d1:fact cl.Cfg.cl_cfg) (List.rev !closures)
  in
  List.iter (analyze_cfg ~d1:Cfg.no_gates) (toplevel_cfgs ctx u);
  let d3b = collect_d3b aliases u in
  (List.rev !findings @ d3b, collect_d3 u)
