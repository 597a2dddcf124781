(* T1 positive/negative pair for the service's mailbox seam. [drain_all]
   hands the pool workers a closure that drains a toplevel
   [Ftr_svc.Mailbox.t] — exactly the handoff the round scheduler performs
   — and must stay quiet: the mailbox is a sanctioned seam (posts and
   drains are sequenced by the round barrier, docs/SERVICE.md). The
   [Queue.t] twin right next to it is the same shape with an unsanctioned
   container and must still fire. *)

let mailbox : int Ftr_svc.Mailbox.t = Ftr_svc.Mailbox.create ~lanes:1 ~vacant:0 ()

let drain_one i =
  Ftr_svc.Mailbox.drain mailbox i (fun () ~src:_ ~seq:_ _ -> ()) ();
  i

let drain_all n = Ftr_exec.Pool.map ~count:n drain_one

let queue : int Queue.t = Queue.create ()

let pop_one i =
  ignore (Queue.take_opt queue);
  i

let pop_all n = Ftr_exec.Pool.map ~count:n pop_one
