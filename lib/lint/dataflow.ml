(* A small generic forward dataflow engine over Cfg.t: a join
   semilattice of facts, a transfer function per event, an edge transfer
   for branch conditions, and a worklist run to fixpoint.

   The engine computes block-ENTRY facts; rules then re-walk the events
   of each reachable block from its entry fact to place findings (the
   transfer functions stay pure, so the fixpoint iteration order cannot
   affect what is reported — a requirement for the byte-identical
   merged-findings contract of the flow stage).

   [join] must be the conservative combiner for the rule's direction:
   D1 uses must-analysis (joining Gated with Ungated yields Ungated — a
   write is clean only if EVERY path passed the gate), D2 uses
   may-analysis (a load unvalidated on SOME incoming path still is). Unreachable blocks have no fact and are skipped
   ([solve] returns [None] for them). *)

module type DOMAIN = sig
  type fact

  val equal : fact -> fact -> bool
  val join : fact -> fact -> fact
  val event : Cfg.event -> fact -> fact

  val branch : Cfg.gates -> taken:bool -> fact -> fact
  (* Refine the fact along the [taken] edge of a two-way branch whose
     condition consults [gates]. Jump/Multi edges pass facts through
     unchanged. *)
end

module Forward (D : DOMAIN) = struct
  (* Fact after the whole event list of a block, given its entry fact. *)
  let flow_block (blk : Cfg.block) fact = List.fold_left (fun f ev -> D.event ev f) fact (Cfg.events blk)

  let solve (cfg : Cfg.t) ~entry_fact =
    let n = Array.length cfg.Cfg.blocks in
    let facts : D.fact option array = Array.make n None in
    facts.(cfg.Cfg.entry) <- Some entry_fact;
    let in_queue = Array.make n false in
    let queue = Queue.create () in
    Queue.add cfg.Cfg.entry queue;
    in_queue.(cfg.Cfg.entry) <- true;
    let merge_into target fact =
      let merged =
        match facts.(target) with None -> fact | Some old -> D.join old fact
      in
      let changed =
        match facts.(target) with None -> true | Some old -> not (D.equal old merged)
      in
      if changed then begin
        facts.(target) <- Some merged;
        if not in_queue.(target) then begin
          Queue.add target queue;
          in_queue.(target) <- true
        end
      end
    in
    while not (Queue.is_empty queue) do
      let id = Queue.take queue in
      in_queue.(id) <- false;
      match facts.(id) with
      | None -> ()
      | Some fact -> (
          let blk = cfg.Cfg.blocks.(id) in
          let out = flow_block blk fact in
          match blk.Cfg.b_term with
          | Cfg.Jump j -> merge_into j out
          | Cfg.Branch { br_gates; br_true; br_false } ->
              merge_into br_true (D.branch br_gates ~taken:true out);
              merge_into br_false (D.branch br_gates ~taken:false out)
          | Cfg.Multi js -> List.iter (fun j -> merge_into j out) js
          | Cfg.Stop -> ())
    done;
    facts

  (* Re-walk every reachable block's events in block-id order with the
     running fact, for the findings pass. *)
  let iter_events (cfg : Cfg.t) facts f =
    Array.iter
      (fun (blk : Cfg.block) ->
        match facts.(blk.Cfg.b_id) with
        | None -> ()
        | Some entry ->
            ignore
              (List.fold_left
                 (fun fact ev ->
                   f ev fact;
                   D.event ev fact)
                 entry (Cfg.events blk)))
      cfg.Cfg.blocks
end
