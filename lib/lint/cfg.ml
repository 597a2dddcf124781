(* Per-function control-flow graphs over the Typedtree, for the
   flow-sensitive lint stage (rules D1, D2, D4, flow_rules.ml).

   A CFG is built for every toplevel binding RHS and module-init
   expression; function bodies are *not* flattened into their definer.
   Instead every [Texp_function] becomes a [Closure] event carrying its
   own sub-CFG, and the rules decide what entry fact the closure body
   inherits (for D1 that is the dataflow fact at the definition site, so
   a closure defined under [if obs then ...] keeps the gate — the
   [on_hop] idiom in lib/core/route.ml).

   Blocks carry a linear event list — calls (with normalised dotted
   paths and shallow argument summaries), variable bindings, closures —
   and end in one terminator: an unconditional jump, a two-way branch
   annotated with the gates its condition consults, a multi-way branch
   (match cases, try handlers, for-loops), or a stop (function exit, or
   a diverging call such as [raise]/[failwith]: nothing after it on
   that path is reachable).

   [&&]/[||]/[not] in branch conditions are expanded into short-circuit
   edges, so [if gate || x then ...] gates only the paths that actually
   passed the gate atom. [e1 @@ e2] and [e2 |> e1] are flattened into
   the underlying application. [Fun.protect ~finally:(fun () -> r) @@
   fun () -> body] inlines body then finally in sequence — finally runs
   on every path, including the exceptional ones this CFG prunes.
   [Flag.with_mode m f] inlines f's body between a synthetic
   [Flag.set_mode m] and a synthetic [Flag.restore_mode] (restore to an
   unknown value: the dataflow treats it as "no longer known enabled").

   Known path-sensitivity limits (also in docs/LINTING.md): exceptions
   are modelled only at try-entry (a handler is entered with the state
   from *before* the body, so a validation made mid-body before a raise
   into a local handler is not seen by the handler); values escaping
   into closures are not tracked;
   module expressions inside function bodies are skipped. *)

open Typedtree

type loc = { l_file : string; l_line : int; l_col : int }

(* Which gate families a condition (or a gate variable's RHS) consults:
   [Ftr_obs.Flag.enabled] and the trace-liveness reads
   [Tracing.is_live]/[Tracing.recording]. *)
type gates = { g_flag : bool; g_trace : bool }

let no_gates = { g_flag = false; g_trace = false }
let join_gates a b = { g_flag = a.g_flag || b.g_flag; g_trace = a.g_trace || b.g_trace }

type arg = {
  a_label : string; (* "" for unlabeled *)
  a_ident : string option; (* Ident.unique_name of a bare local identifier *)
  a_bool : bool option; (* Some b for a literal (optionally Some-wrapped) bool *)
}

type call = { c_parts : string list; c_args : arg list; c_loc : loc }

type event =
  | Call of call
  | Bind of { bv_id : string; bv_rhs : loc option; bv_loc : loc }
      (* [bv_rhs] is the location of the RHS's outermost call event when
         the RHS is an application — D2 uses it to rebind an unchecked
         load to the variable. *)
  | Closure of closure

and closure = { cl_cfg : t; cl_loc : loc }

and terminator =
  | Jump of int
  | Branch of { br_gates : gates; br_true : int; br_false : int }
  | Multi of int list
  | Stop

and block = { b_id : int; mutable b_events : event list (* reversed while building *); mutable b_term : terminator }

and t = { blocks : block array; entry : int; loops : loop list }

(* One source-level loop in this CFG (not in nested closures), for D4:
   the [Flag.enabled] reads its body performs and whether the body also
   writes the flag (then hoisting would change behaviour). *)
and loop = { lp_loc : loc; mutable lp_flag_reads : loc list; mutable lp_dirty : bool }

let events b = List.rev b.b_events

(* ------------------------------------------------------------------ *)
(* Builder                                                             *)
(* ------------------------------------------------------------------ *)

type ctx = {
  file : string; (* fallback for ghost locations *)
  norm_parts : Path.t -> string list;
      (* dotted path split into parts, stdlib-stripped and with unit-level
         module aliases expanded (flow_rules.ml) *)
  cond_gates : Typedtree.expression -> gates;
      (* which gate families an (atomic) condition consults, including
         let-bound gate variables *)
}

type builder = {
  ctx : ctx;
  mutable blocks_rev : block list;
  mutable nb : int;
  mutable loops_rev : loop list;
  mutable loop_stack : loop list; (* innermost first *)
}

let loc_of b (loc : Location.t) =
  let pos = loc.Location.loc_start in
  let file = if String.equal pos.Lexing.pos_fname "" then b.ctx.file else pos.Lexing.pos_fname in
  { l_file = file; l_line = pos.Lexing.pos_lnum; l_col = pos.Lexing.pos_cnum - pos.Lexing.pos_bol }

let new_block b =
  let blk = { b_id = b.nb; b_events = []; b_term = Stop } in
  b.nb <- b.nb + 1;
  b.blocks_rev <- blk :: b.blocks_rev;
  blk.b_id

let block_of b id = List.nth b.blocks_rev (b.nb - 1 - id)
let emit b id ev = (block_of b id).b_events <- ev :: (block_of b id).b_events
let set_term b id t = (block_of b id).b_term <- t

let is_flag_enabled parts =
  match List.rev parts with
  | "enabled" :: m :: _ -> Typed_rules.module_head m "Flag"
  | _ -> false

(* Calls after which control does not return. *)
let diverges parts =
  match List.rev parts with
  | ("raise" | "raise_notrace" | "failwith" | "invalid_arg" | "exit") :: _ -> true
  | _ -> false

(* Direct flag writes: hoisting a [Flag.enabled] read over these would
   change behaviour, so they mark enclosing loops dirty for D4. *)
let writes_flag parts =
  match List.rev parts with
  | ("set_mode" | "with_mode" | "suppress_in_domain") :: m :: _ -> Typed_rules.module_head m "Flag"
  | _ -> false

let literal_bool (e : expression) =
  let rec go (e : expression) =
    match e.exp_desc with
    | Texp_construct (_, cd, args) -> (
        match (cd.Types.cstr_name, args) with
        | "true", [] -> Some true
        | "false", [] -> Some false
        | "Some", [ x ] -> go x
        | _ -> None)
    | _ -> None
  in
  go e

let arg_summary label (e : expression) =
  let a_label =
    match label with
    | Asttypes.Nolabel -> ""
    | Asttypes.Labelled s | Asttypes.Optional s -> s
  in
  let a_ident =
    match e.exp_desc with
    | Texp_ident (Path.Pident id, _, _) -> Some (Ident.unique_name id)
    | _ -> None
  in
  { a_label; a_ident; a_bool = literal_bool e }

(* A unit thunk we can inline as straight-line control flow. *)
let thunk_body (e : expression) =
  match e.exp_desc with
  | Texp_function { cases = [ { c_lhs = _; c_guard = None; c_rhs; _ } ]; _ } -> Some c_rhs
  | _ -> None

let rec build_expr b cur (e : expression) =
  match e.exp_desc with
  | Texp_ident _ | Texp_constant _ | Texp_instvar _ | Texp_unreachable -> cur
  | Texp_let (_, vbs, body) ->
      let cur = List.fold_left (build_binding b) cur vbs in
      build_expr b cur body
  | Texp_function _ ->
      emit b cur (Closure { cl_cfg = build_closure b.ctx e; cl_loc = loc_of b e.exp_loc });
      cur
  | Texp_apply (fn, args) -> build_apply b cur e fn args
  | Texp_ifthenelse (c, then_, else_opt) ->
      let tb = new_block b and eb = new_block b and join = new_block b in
      build_cond b cur c ~ktrue:tb ~kfalse:eb;
      let tend = build_expr b tb then_ in
      set_term b tend (Jump join);
      let eend = match else_opt with Some e -> build_expr b eb e | None -> eb in
      set_term b eend (Jump join);
      join
  | Texp_sequence (e1, e2) ->
      let cur = build_expr b cur e1 in
      build_expr b cur e2
  | Texp_match (scrut, cases, _) ->
      let cur = build_expr b cur scrut in
      build_cases b cur cases
  | Texp_try (body, handlers) ->
      (* Handlers are modelled as entered with the state from before the
         body (see the header comment for what this misses). *)
      let bb = new_block b in
      let join = new_block b in
      let hbs = List.map (fun _ -> new_block b) handlers in
      set_term b cur (Multi (bb :: hbs));
      let bend = build_expr b bb body in
      set_term b bend (Jump join);
      List.iter2
        (fun hb (c : value case) -> build_case b hb ~join c.c_guard c.c_rhs)
        hbs handlers;
      join
  | Texp_while (cond, body) ->
      let head = new_block b in
      set_term b cur (Jump head);
      let bodyb = new_block b and exitb = new_block b in
      build_cond b head cond ~ktrue:bodyb ~kfalse:exitb;
      let lp = { lp_loc = loc_of b e.exp_loc; lp_flag_reads = []; lp_dirty = false } in
      b.loops_rev <- lp :: b.loops_rev;
      b.loop_stack <- lp :: b.loop_stack;
      let bend = build_expr b bodyb body in
      b.loop_stack <- List.tl b.loop_stack;
      set_term b bend (Jump head);
      exitb
  | Texp_for (_, _, lo, hi, _, body) ->
      let cur = build_expr b cur lo in
      let cur = build_expr b cur hi in
      let head = new_block b in
      set_term b cur (Jump head);
      let bodyb = new_block b and exitb = new_block b in
      set_term b head (Multi [ bodyb; exitb ]);
      let lp = { lp_loc = loc_of b e.exp_loc; lp_flag_reads = []; lp_dirty = false } in
      b.loops_rev <- lp :: b.loops_rev;
      b.loop_stack <- lp :: b.loop_stack;
      let bend = build_expr b bodyb body in
      b.loop_stack <- List.tl b.loop_stack;
      set_term b bend (Jump head);
      exitb
  | Texp_tuple es -> List.fold_left (build_expr b) cur es
  | Texp_construct (_, _, es) -> List.fold_left (build_expr b) cur es
  | Texp_variant (_, eo) -> Option.fold ~none:cur ~some:(build_expr b cur) eo
  | Texp_record { fields; extended_expression } ->
      let cur = Option.fold ~none:cur ~some:(build_expr b cur) extended_expression in
      Array.fold_left
        (fun cur (_, def) ->
          match def with Overridden (_, e) -> build_expr b cur e | Kept _ -> cur)
        cur fields
  | Texp_field (e, _, _) -> build_expr b cur e
  | Texp_setfield (e1, _, _, e2) ->
      let cur = build_expr b cur e1 in
      build_expr b cur e2
  | Texp_array es -> List.fold_left (build_expr b) cur es
  | Texp_assert (e', _) -> (
      match e'.exp_desc with
      | Texp_construct (_, { Types.cstr_name = "false"; _ }, []) ->
          (* [assert false] diverges like a raise. *)
          set_term b cur Stop;
          new_block b
      | _ -> build_expr b cur e')
  | Texp_lazy body ->
      (* Forced later, like a closure body. *)
      emit b cur (Closure { cl_cfg = build_closure_of_body b.ctx body; cl_loc = loc_of b e.exp_loc });
      cur
  | Texp_open (_, body) -> build_expr b cur body
  | Texp_letmodule (_, _, _, _, body) -> build_expr b cur body
  | Texp_letexception (_, body) -> build_expr b cur body
  | _ -> cur

and build_binding b cur (vb : value_binding) =
  match vb.vb_expr.exp_desc with
  | Texp_function _ ->
      emit b cur
        (Closure { cl_cfg = build_closure b.ctx vb.vb_expr; cl_loc = loc_of b vb.vb_expr.exp_loc });
      bind_var b cur vb ~rhs:None
  | Texp_apply _ ->
      let rhs_loc = loc_of b vb.vb_expr.exp_loc in
      let cur = build_expr b cur vb.vb_expr in
      bind_var b cur vb ~rhs:(Some rhs_loc)
  | _ ->
      let cur = build_expr b cur vb.vb_expr in
      bind_var b cur vb ~rhs:None

and bind_var b cur (vb : value_binding) ~rhs =
  (match Typed_rules.binding_var vb.vb_pat with
  | Some (id, name_loc) ->
      emit b cur (Bind { bv_id = Ident.unique_name id; bv_rhs = rhs; bv_loc = loc_of b name_loc.loc })
  | None -> ());
  cur

and build_cases b cur cases =
  let join = new_block b in
  let cbs = List.map (fun _ -> new_block b) cases in
  set_term b cur (Multi cbs);
  List.iter2
    (fun cb (c : computation case) -> build_case b cb ~join c.c_guard c.c_rhs)
    cbs cases;
  join

(* A case body; a [when] guard branches into it carrying the guard's
   gates, so [| Some tr when Tracing.is_live tr -> ...] gates the arm. *)
and build_case b cb ~join guard rhs =
  let target =
    match guard with
    | None -> cb
    | Some g ->
        let cur = build_expr b cb g in
        let bb = new_block b in
        set_term b cur (Branch { br_gates = b.ctx.cond_gates g; br_true = bb; br_false = join });
        bb
  in
  let cend = build_expr b target rhs in
  set_term b cend (Jump join)

(* Short-circuit expansion of a branch condition. *)
and build_cond b cur (c : expression) ~ktrue ~kfalse =
  let head_parts (e : expression) =
    match e.exp_desc with Texp_ident (p, _, _) -> b.ctx.norm_parts p | _ -> []
  in
  match c.exp_desc with
  | Texp_apply (fn, [ (_, Some l); (_, Some r) ])
    when match head_parts fn with [ "&&" ] -> true | _ -> false ->
      let mid = new_block b in
      build_cond b cur l ~ktrue:mid ~kfalse;
      build_cond b mid r ~ktrue ~kfalse
  | Texp_apply (fn, [ (_, Some l); (_, Some r) ])
    when match head_parts fn with [ "||" ] -> true | _ -> false ->
      let mid = new_block b in
      build_cond b cur l ~ktrue ~kfalse:mid;
      build_cond b mid r ~ktrue ~kfalse
  | Texp_apply (fn, [ (_, Some a) ]) when match head_parts fn with [ "not" ] -> true | _ -> false
    ->
      build_cond b cur a ~ktrue:kfalse ~kfalse:ktrue
  | _ ->
      let cur = build_expr b cur c in
      set_term b cur (Branch { br_gates = b.ctx.cond_gates c; br_true = ktrue; br_false = kfalse })

and build_apply b cur (e : expression) fn args =
  let fn_parts =
    match fn.exp_desc with Texp_ident (p, _, _) -> b.ctx.norm_parts p | _ -> []
  in
  match (fn.exp_desc, fn_parts, args) with
  (* Curried partial application: [(f ~a) b] — the shape the typechecker
     leaves for [f ~a @@ fun () -> ...] after eliminating the operator —
     flattens into one application so the special forms below still see
     every argument. *)
  | Texp_apply (fn2, args2), _, _ -> build_apply b cur e fn2 (args2 @ args)
  (* [f @@ x] and [x |> f]: flatten into the underlying application so
     the special forms below still fire through the operators. *)
  | _, [ "@@" ], [ (_, Some f); (_, Some x) ] -> reapply b cur e f x
  | _, [ "|>" ], [ (_, Some x); (_, Some f) ] -> reapply b cur e f x
  | _ -> (
      let rev = List.rev fn_parts in
      let is_protect =
        match rev with "protect" :: m :: _ -> Typed_rules.module_head m "Fun" | _ -> false
      in
      let is_with_mode =
        match rev with "with_mode" :: m :: _ -> Typed_rules.module_head m "Flag" | _ -> false
      in
      let inlined_protect =
        if not is_protect then None
        else
          let fin =
            List.find_map
              (fun (l, a) ->
                match (l, a) with
                | Asttypes.Labelled "finally", Some a -> thunk_body a
                | _ -> None)
              args
          in
          let body =
            List.find_map
              (fun (l, a) ->
                match (l, a) with Asttypes.Nolabel, Some a -> thunk_body a | _ -> None)
              args
          in
          (* The body thunk is what matters for path-sensitivity; a
             [~finally] that is a named function rather than an inline
             thunk is skipped (its effects stay invisible — a documented
             limit). *)
          match body with Some bd -> Some (bd, fin) | None -> None
      in
      match inlined_protect with
      | Some (body, fin) ->
          let cur = build_expr b cur body in
          (match fin with Some f -> build_expr b cur f | None -> cur)
      | None ->
          if is_with_mode then begin
            let mode =
              List.find_map
                (fun (_, a) -> match a with Some a -> literal_bool a | None -> None)
                args
            in
            let f =
              List.find_map
                (fun (_, a) ->
                  match a with
                  | Some a -> ( match thunk_body a with Some bd -> Some bd | None -> None)
                  | None -> None)
                args
            in
            match f with
            | Some body ->
                let l = loc_of b e.exp_loc in
                emit b cur
                  (Call
                     {
                       c_parts = [ "Flag"; "set_mode" ];
                       c_args = [ { a_label = ""; a_ident = None; a_bool = mode } ];
                       c_loc = l;
                     });
                List.iter (fun lp -> lp.lp_dirty <- true) b.loop_stack;
                let cur = build_expr b cur body in
                emit b cur
                  (Call { c_parts = [ "Flag"; "restore_mode" ]; c_args = []; c_loc = l });
                cur
            | None -> plain_apply b cur e fn fn_parts args
          end
          else plain_apply b cur e fn fn_parts args)

and reapply b cur (e : expression) f x =
  match f.exp_desc with
  | Texp_apply (fn2, args2) -> build_apply b cur e fn2 (args2 @ [ (Asttypes.Nolabel, Some x) ])
  | _ -> build_apply b cur e f [ (Asttypes.Nolabel, Some x) ]

and plain_apply b cur (e : expression) fn fn_parts args =
  let cur = match fn.exp_desc with Texp_ident _ -> cur | _ -> build_expr b cur fn in
  let cur =
    List.fold_left
      (fun cur (_, a) -> match a with Some a -> build_expr b cur a | None -> cur)
      cur args
  in
  let c_args =
    List.filter_map (fun (l, a) -> Option.map (arg_summary l) a) args
  in
  let call = { c_parts = fn_parts; c_args; c_loc = loc_of b e.exp_loc } in
  emit b cur (Call call);
  (match b.loop_stack with
  | lp :: _ when is_flag_enabled fn_parts -> lp.lp_flag_reads <- call.c_loc :: lp.lp_flag_reads
  | _ -> ());
  if writes_flag fn_parts then List.iter (fun lp -> lp.lp_dirty <- true) b.loop_stack;
  if diverges fn_parts then begin
    set_term b cur Stop;
    new_block b
  end
  else cur

(* One [Texp_function] layer: its sub-CFG covers every case body (a
   multi-case [function ...] branches like a match). Deeper parameters
   nest as further [Closure] events, which inherit facts transitively. *)
and build_closure ctx (e : expression) =
  match e.exp_desc with
  | Texp_function { cases; _ } ->
      build_with ctx (fun b entry ->
          match cases with
          | [ { c_guard = None; c_rhs; _ } ] -> build_expr b entry c_rhs
          | _ ->
              let join = new_block b in
              let cbs = List.map (fun _ -> new_block b) cases in
              set_term b entry (Multi cbs);
              List.iter2
                (fun cb (c : value case) -> build_case b cb ~join c.c_guard c.c_rhs)
                cbs cases;
              join)
  | _ -> build_closure_of_body ctx e

and build_closure_of_body ctx body = build_with ctx (fun b entry -> build_expr b entry body)

and build_with ctx f =
  let b = { ctx; blocks_rev = []; nb = 0; loops_rev = []; loop_stack = [] } in
  let entry = new_block b in
  ignore (f b entry : int);
  let blocks = Array.of_list (List.rev b.blocks_rev) in
  { blocks; entry; loops = List.rev b.loops_rev }

(* CFG of one toplevel expression (binding RHS or [Tstr_eval]). *)
let build ctx (e : expression) = build_with ctx (fun b entry -> build_expr b entry e)
