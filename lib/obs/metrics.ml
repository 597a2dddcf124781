(* Process-wide metrics registry: named counters, gauges and log-scale
   histograms, each optionally carrying labelled dimensions
   (e.g. route_stuck_total{reason="no_live_neighbor"}). Call sites guard on
   [Flag.enabled] so an instrumented hot path pays one bool load when the
   registry is off; everything here only runs when telemetry is on, so
   clarity wins over nanoseconds.

   A name is bound to exactly one metric kind for its lifetime (Prometheus
   semantics); mixing kinds under one name raises. *)

module Summary = Ftr_stats.Summary

(* Histogram buckets are powers of two: bucket 0 counts observations <= 1,
   bucket i >= 1 counts observations in (2^(i-1), 2^i]. 64 buckets cover
   every hop count, queue depth or microsecond duration this simulator can
   produce; larger values clamp into the last bucket. *)
let bucket_count = 64

let bucket_upper i = if i <= 0 then 1.0 else Float.pow 2.0 (float_of_int i)

let bucket_index v =
  if v <= 1.0 then 0
  else begin
    let i = ref 0 and ub = ref 1.0 in
    while v > !ub && !i < bucket_count - 1 do
      incr i;
      ub := !ub *. 2.0
    done;
    !i
  end

type histogram = { buckets : int array; summary : Summary.t }

type metric =
  | Counter of { mutable c : int }
  | Gauge of { mutable g : float }
  | Histogram of histogram

type kind = Counter_kind | Gauge_kind | Histogram_kind

let kind_name = function
  | Counter_kind -> "counter"
  | Gauge_kind -> "gauge"
  | Histogram_kind -> "histogram"

type entry = { name : string; labels : (string * string) list; metric : metric }

type t = {
  table : (string, entry) Hashtbl.t; (* keyed by name + rendered labels *)
  kinds : (string, kind) Hashtbl.t; (* one kind per metric name *)
}

let create () = { table = Hashtbl.create 64; kinds = Hashtbl.create 64 }

(* The process-wide registry every instrumentation site defaults to. *)
let default = create ()

let reset t =
  Hashtbl.reset t.table;
  Hashtbl.reset t.kinds

let labels_key labels =
  String.concat "," (List.map (fun (k, v) -> k ^ "=" ^ v) labels)

(* Labels are string pairs; keep their ordering typed so the registry key
   never depends on polymorphic compare. *)
let compare_label (ka, va) (kb, vb) =
  let c = String.compare ka kb in
  if c <> 0 then c else String.compare va vb

let find_or_create t ~name ~labels ~kind make =
  if String.equal name "" then invalid_arg "Metrics: metric name must be non-empty";
  (match Hashtbl.find_opt t.kinds name with
  | Some k when k <> kind ->
      invalid_arg
        (Printf.sprintf "Metrics: %S is a %s, used as a %s" name (kind_name k) (kind_name kind))
  | Some _ -> ()
  | None -> Hashtbl.replace t.kinds name kind);
  let labels = List.sort compare_label labels in
  let key = name ^ "{" ^ labels_key labels ^ "}" in
  match Hashtbl.find_opt t.table key with
  | Some e -> e.metric
  | None ->
      let metric = make () in
      Hashtbl.replace t.table key { name; labels; metric };
      metric

(* ------------------------------------------------------------------ *)
(* Updates                                                             *)
(* ------------------------------------------------------------------ *)

let incr_by ?(registry = default) ?(labels = []) name by =
  match find_or_create registry ~name ~labels ~kind:Counter_kind (fun () -> Counter { c = 0 }) with
  | Counter r ->
      if by < 0 then invalid_arg "Metrics.incr_by: counters only go up";
      r.c <- r.c + by
  | Gauge _ | Histogram _ -> assert false

let incr ?registry ?labels name = incr_by ?registry ?labels name 1

let set_gauge ?(registry = default) ?(labels = []) name v =
  match find_or_create registry ~name ~labels ~kind:Gauge_kind (fun () -> Gauge { g = 0.0 }) with
  | Gauge r -> r.g <- v
  | Counter _ | Histogram _ -> assert false

let observe ?(registry = default) ?(labels = []) name v =
  match
    find_or_create registry ~name ~labels ~kind:Histogram_kind (fun () ->
        Histogram { buckets = Array.make bucket_count 0; summary = Summary.create () })
  with
  | Histogram h ->
      let i = bucket_index v in
      h.buckets.(i) <- h.buckets.(i) + 1;
      Summary.add h.summary v
  | Counter _ | Gauge _ -> assert false

let observe_int ?registry ?labels name v = observe ?registry ?labels name (float_of_int v)

(* ------------------------------------------------------------------ *)
(* Queries                                                             *)
(* ------------------------------------------------------------------ *)

let lookup t ~name ~labels =
  let labels = List.sort compare_label labels in
  Hashtbl.find_opt t.table (name ^ "{" ^ labels_key labels ^ "}")

(* ftr-lint: disable T6 -- oracle: the exec and obs tests read counters through it *)
let counter_value ?(registry = default) ?(labels = []) name =
  match lookup registry ~name ~labels with
  | Some { metric = Counter r; _ } -> r.c
  | Some _ | None -> 0

let gauge_value ?(registry = default) ?(labels = []) name =
  match lookup registry ~name ~labels with
  | Some { metric = Gauge r; _ } -> r.g
  | Some _ | None -> nan

(* ------------------------------------------------------------------ *)
(* Snapshots for the exporters                                         *)
(* ------------------------------------------------------------------ *)

type histogram_view = {
  h_count : int;
  h_sum : float;
  h_min : float;
  h_max : float;
  h_buckets : (float * int) list;
      (* (inclusive upper bound, count), non-cumulative, trimmed to the
         highest non-empty bucket *)
}

type view =
  | Counter_view of int
  | Gauge_view of float
  | Histogram_view of histogram_view

type item = { item_name : string; item_labels : (string * string) list; item_view : view }

let histogram_view h =
  let last = ref (-1) in
  Array.iteri (fun i c -> if c > 0 then last := i) h.buckets;
  let buckets = List.init (!last + 1) (fun i -> (bucket_upper i, h.buckets.(i))) in
  {
    h_count = Summary.count h.summary;
    h_sum = Summary.total h.summary;
    h_min = Summary.min_value h.summary;
    h_max = Summary.max_value h.summary;
    h_buckets = buckets;
  }

let snapshot ?(registry = default) () =
  let items =
    Hashtbl.fold
      (fun _ e acc ->
        let view =
          match e.metric with
          | Counter r -> Counter_view r.c
          | Gauge r -> Gauge_view r.g
          | Histogram h -> Histogram_view (histogram_view h)
        in
        { item_name = e.name; item_labels = e.labels; item_view = view } :: acc)
      registry.table []
  in
  List.sort
    (fun a b ->
      let c = String.compare a.item_name b.item_name in
      if c <> 0 then c else List.compare compare_label a.item_labels b.item_labels)
    items

let size ?(registry = default) () = Hashtbl.length registry.table

(* Quantile estimate from a log-scale histogram: find the bucket holding
   the target rank, then interpolate linearly within it (the
   Prometheus-style assumption that observations fill a bucket uniformly),
   and clamp to the observed [min, max] so the estimate never leaves the
   data's range. Linear — not log-linear — within-bucket interpolation
   keeps percentiles continuous in the target rank without biasing them
   toward the bucket's lower edge, and makes the expected values exact
   enough to assert in tests. *)
let histogram_quantile v q =
  if q < 0.0 || q > 1.0 then invalid_arg "Metrics.histogram_quantile: q must be in [0,1]";
  if v.h_count = 0 then nan
  else begin
    let target = q *. float_of_int v.h_count in
    let rec scan cum = function
      | [] -> v.h_max
      | (ub, c) :: rest ->
          let cum' = cum +. float_of_int c in
          if c > 0 && cum' >= target then begin
            let lo = if ub <= 1.0 then 0.0 else ub /. 2.0 in
            let frac = if c = 0 then 1.0 else (target -. cum) /. float_of_int c in
            let frac = Float.max 0.0 (Float.min 1.0 frac) in
            lo +. (frac *. (ub -. lo))
          end
          else scan cum' rest
    in
    let est = scan 0.0 v.h_buckets in
    Float.max v.h_min (Float.min v.h_max est)
  end
