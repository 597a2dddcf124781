(** Structural statistics of an overlay: degree balance, link-length
    spread, boundary effects. The benchmark's "anatomy" section prints
    them; tests pin the invariants (e.g. the 1/d network concentrates
    in-degree nowhere). *)

val in_degrees : Network.t -> int array
(** Per-node in-degree (how many nodes link to each). *)

type anatomy = {
  nodes : int;
  mean_out_degree : float;
  mean_in_degree : float;
  max_in_degree : int;
  in_degree_hotspot : float;  (** largest in-degree over the mean *)
  median_length : float;  (** long-link lengths; nan without long links *)
  p90_length : float;
  p99_length : float;
  boundary_distortion : float;
      (** mean long-link length of edge nodes over that of middle nodes;
          1.0 on a boundary-free circle *)
}

val anatomy : Network.t -> anatomy
(** Degree balance, link-length spread and boundary effect in one record.
    @raise Invalid_argument on networks under 6 nodes. *)
