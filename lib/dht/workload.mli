(** Zipf-popular request workloads over the resource layer, and the load
    skew they induce (who serves, who forwards). *)

type t

val create : ?exponent:float -> universe:int -> unit -> t
(** A key universe with Zipf(exponent) popularity (default 1.0); rank 0 is
    the hottest key. @raise Invalid_argument if [universe < 1]. *)

val universe : t -> int
(** Number of distinct keys. *)

val keys : t -> string array
(** All keys in popularity-rank order (do not mutate). *)

(* ftr-lint: disable T6 -- ROADMAP item 19: only test_dht samples it directly *)
val draw : t -> Ftr_prng.Rng.t -> string
(** One key, rank sampled with probability proportional to rank^-exponent. *)

type report = {
  requests : int;
  hit_rate : float;  (** requests that found their value *)
  mean_hops : float;
  serve_max_over_mean : float;
      (** hottest node's value-serving load over the mean serving load *)
  forward_max_over_mean : float;
      (** hottest node's forwarding load over the network-wide mean *)
}

val measure_load :
  ?failures:Ftr_core.Failure.t ->
  ?strategy:Ftr_core.Route.strategy ->
  ?spread:bool ->
  store:Store.t ->
  requests:int ->
  t ->
  Ftr_prng.Rng.t ->
  report
(** Route [requests] popularity-weighted lookups from random live sources
    over the store's network. With [spread] each request reads a uniformly
    random replica instead of the primary, spreading a hot key's serving
    load across its replica set. Keys must already be stored (see
    {!Store.put}). @raise Invalid_argument if [requests < 1]. *)
