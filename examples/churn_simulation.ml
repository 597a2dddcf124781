(* Churn: the Section 5 heuristic as a live protocol.

   Nodes join through routed lookups, solicit incoming links with the
   Poisson/redirect rule, crash without warning, and repair dead links
   with fresh 1/d draws — all over the discrete-event engine. Run with:

     dune exec examples/churn_simulation.exe *)

module Engine = Ftr_sim.Engine
module Overlay = Ftr_p2p.Overlay
module Churn = Ftr_p2p.Churn
module Rng = Ftr_prng.Rng

let () =
  let line_size = 1024 in
  let rng = Rng.of_int 7 in
  let engine = Engine.create () in
  let overlay = Overlay.create ~line_size ~links:8 ~rng:(Rng.split rng) engine in
  (* Seed population: 64 nodes spread over the line. *)
  Overlay.populate overlay ~positions:(List.init 64 (fun i -> i * line_size / 64));
  Printf.printf "seeded %d nodes on a %d-point line\n" (Overlay.node_count overlay) line_size;

  (* A workload of joins, graceful leaves, crashes and lookups. *)
  let until =
    Churn.install
      ~config:
        {
          Churn.duration = 2000.0;
          join_rate = 0.08;
          crash_rate = 0.03;
          leave_rate = 0.02;
          lookup_rate = 1.5;
          min_nodes = 16;
        }
      ~line_size overlay (Rng.split rng)
  in
  (* Telemetry on, events captured: the overlay logs every join, crash
     and leave as an [overlay.*] event line. *)
  let (), events =
    Ftr_obs.Flag.with_mode true (fun () ->
        Ftr_obs.Events.with_buffer (fun () ->
            Engine.run ~until engine;
            Engine.run ~max_events:1_000_000 engine))
  in

  let r = Churn.report overlay in
  Printf.printf "\nafter %.0f time units of churn:\n" until;
  Printf.printf "  population   %d live nodes (%d joins, %d crashes, %d leaves)\n"
    r.Churn.final_nodes r.Churn.joins r.Churn.crashes r.Churn.leaves;
  Printf.printf "  lookups      %d issued, %.1f%% succeeded, %.1f hops on average\n"
    r.Churn.lookups_issued (100.0 *. r.Churn.success_rate) r.Churn.mean_hops;
  Printf.printf "  maintenance  %d messages, %d probes, %d links regenerated\n" r.Churn.messages
    r.Churn.probes r.Churn.repairs;

  let membership =
    List.filter
      (String.starts_with ~prefix:{|{"kind":"overlay.|})
      (String.split_on_char '\n' events)
  in
  print_endline "\nlast protocol events:";
  List.iteri
    (fun i line -> if i >= List.length membership - 16 then Printf.printf "  %s\n" line)
    membership
