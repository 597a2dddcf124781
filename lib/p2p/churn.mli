(** Churn workload driver: Poisson processes of joins, graceful leaves,
    crashes and lookup traffic over an {!Overlay.t}, realising the paper's
    "nodes arrive and depart at a high rate" regime end to end. *)

type config = {
  duration : float;  (** virtual-time horizon for the workload *)
  join_rate : float;  (** joins per unit time *)
  crash_rate : float;  (** fail-stop crashes per unit time *)
  leave_rate : float;  (** graceful departures per unit time *)
  lookup_rate : float;  (** lookups per unit time *)
  min_nodes : int;  (** never shrink below this population *)
}

val install : ?config:config -> line_size:int -> Overlay.t -> Ftr_prng.Rng.t -> float
(** Schedule all four Poisson processes on the overlay's engine; returns
    the virtual-time horizon to run until. *)

type report = {
  final_nodes : int;
  lookups_issued : int;
  lookups_ok : int;
  lookups_failed : int;
  success_rate : float;  (** fraction of resolved lookups that succeeded *)
  mean_hops : float;
  messages : int;
  probes : int;
  repairs : int;
  joins : int;
  crashes : int;
  leaves : int;
}

val report : Overlay.t -> report
(** Snapshot the overlay's statistics. *)

val run :
  ?config:config ->
  ?seed:int ->
  line_size:int ->
  initial_nodes:int ->
  links:int ->
  unit ->
  report
(** Build an initial population, run the churn workload to its horizon,
    settle in-flight traffic, and report.
    @raise Invalid_argument on fewer than two initial nodes or more nodes
    than line points. *)

type join_cost_row = {
  line_size : int;
  mean_messages_per_join : float;  (** routed messages per join *)
  mean_lookups_per_join : float;  (** maintenance lookups per join *)
}

val join_cost :
  ?links:int -> ?joins:int -> ?seed:int -> line_sizes:int list -> unit -> join_cost_row list
(** Per-join maintenance cost at several network sizes (an eighth of the
    line populated before measuring). The paper's scalability requirement
    is O(links · log n) messages per join; the benchmark checks the growth
    is logarithmic. @raise Invalid_argument on lines under 64 points. *)
