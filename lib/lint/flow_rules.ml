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
   D2 resource-typestate    -- a network loaded with
      [Snapshot.load ~validate:false] must flow through [Check.snapshot]
      or [Csr.validate] before any path hands it to a routing entry
      point ([Route.route], [Route.route_lockstep], [Route_batch.run]).
      Reaching exit unvalidated is not flagged, only actual use is (a
      load-validate helper returning the network is legitimate).
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
  | ("incr" | "incr_by" | "set_gauge" | "observe" | "observe_int" | "observe_ints") :: m :: _
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
(* D2: validate before use                                             *)
(* ------------------------------------------------------------------ *)

(* Dotted-path suffix patterns, matched against alias-normalised call
   paths: [["Snapshot"; "load"]] matches [Ftr_core.Snapshot.load],
   [Ftr_core__Snapshot.load] and a local [Snapshot.load] alike. *)
let matches parts patterns =
  let rec go rp rq =
    match (rp, rq) with
    | _, [] -> true
    | p :: rp', q :: rq' -> (String.equal p q || Typed_rules.module_head p q) && go rp' rq'
    | [], _ :: _ -> false
  in
  List.exists (fun pattern -> go (List.rev parts) (List.rev pattern)) patterns

let d2_validators = [ [ "Check"; "snapshot" ]; [ "Csr"; "validate" ] ]
let d2_uses = [ [ "Route"; "route" ]; [ "Route"; "route_lockstep" ]; [ "Route_batch"; "run" ] ]

(* Only a literal [~validate:false] loads an unchecked network; a
   default or non-literal [~validate] does not. *)
let d2_acquires (c : Cfg.call) =
  matches c.Cfg.c_parts [ [ "Snapshot"; "load" ] ]
  && List.exists
       (fun (a : Cfg.arg) -> String.equal a.Cfg.a_label "validate" && a.Cfg.a_bool = Some false)
       c.Cfg.c_args

module D2_dom = struct
  (* One unchecked load: its call site, the variable it was bound to
     ([None] until a [let] binds it) and whether a validator has seen
     it. A fact is kept sorted by (owner, site). *)
  type inst = { owner : string option; site : Cfg.loc; validated : bool }

  type fact = inst list

  let key i = (i.owner, i.site)
  let sort = List.sort (fun x y -> compare (key x) (key y))
  let equal (a : fact) b = a = b

  (* May-analysis: a load unvalidated on some incoming path still is. *)
  let rec join (a : fact) (b : fact) =
    match (a, b) with
    | [], r | r, [] -> r
    | x :: a', y :: b' ->
        let c = compare (key x) (key y) in
        if c = 0 then { x with validated = x.validated && y.validated } :: join a' b'
        else if c < 0 then x :: join a' b'
        else y :: join a b'

  let event ev (fact : fact) =
    match ev with
    | Cfg.Closure _ | Cfg.Bind { bv_rhs = None; _ } -> fact
    | Cfg.Bind { bv_id; bv_rhs = Some l; _ } ->
        (* Rebind the load the RHS just made to the variable. *)
        sort
          (List.map
             (fun i -> if i.owner = None && i.site = l then { i with owner = Some bv_id } else i)
             fact)
    | Cfg.Call c ->
        let fact =
          if matches c.Cfg.c_parts d2_validators then
            (* A validator checks the loads it names, or every load when
               it names none (conservative: it never adds a finding). *)
            let named i =
              i.owner <> None && List.exists (fun (a : Cfg.arg) -> a.Cfg.a_ident = i.owner) c.Cfg.c_args
            in
            let any = List.exists named fact in
            List.map (fun i -> if named i || not any then { i with validated = true } else i) fact
          else fact
        in
        if d2_acquires c then
          let i = { owner = None; site = c.Cfg.c_loc; validated = false } in
          sort (i :: List.filter (fun j -> key j <> key i) fact)
        else fact

  let branch _ ~taken:_ fact = fact
end

module D2_flow = Dataflow.Forward (D2_dom)

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
    (* D2: fresh per function body. *)
    let d2_facts = D2_flow.solve cfg ~entry_fact:[] in
    D2_flow.iter_events cfg d2_facts (fun ev fact ->
        match ev with
        | Cfg.Call c when matches c.Cfg.c_parts d2_uses ->
            List.iter
              (fun (a : Cfg.arg) ->
                if
                  List.exists
                    (fun (i : D2_dom.inst) ->
                      (not i.D2_dom.validated) && i.D2_dom.owner <> None
                      && i.D2_dom.owner = a.Cfg.a_ident)
                    fact
                then
                  add
                    (finding Finding.D2 c.Cfg.c_loc
                       "network loaded with Snapshot.load ~validate:false is routed before \
                        flowing through Check.snapshot/Csr.validate; validate it first or load \
                        with the default ~validate:true"))
              c.Cfg.c_args
        | _ -> ());
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
  List.rev !findings
