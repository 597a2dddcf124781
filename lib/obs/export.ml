(* Exporters over the metrics registry and the span profiler: a
   human-readable text report, a JSON snapshot (one tree, machine
   friendly), and the Prometheus text exposition format. *)

let labels_string labels =
  if labels = [] then ""
  else
    "{"
    ^ String.concat ","
        (List.map
           (fun (k, v) ->
             let escaped =
               String.concat ""
                 (List.map
                    (function
                      | '"' -> "\\\"" | '\\' -> "\\\\" | '\n' -> "\\n" | c -> String.make 1 c)
                    (List.init (String.length v) (String.get v)))
             in
             Printf.sprintf "%s=\"%s\"" k escaped)
           labels)
    ^ "}"

(* ------------------------------------------------------------------ *)
(* Text report                                                         *)
(* ------------------------------------------------------------------ *)

let span_report () =
  let buf = Buffer.create 512 in
  let stats = Span.stats () in
  if List.is_empty stats then Buffer.add_string buf "spans: none recorded\n"
  else begin
    Buffer.add_string buf
      (Printf.sprintf "%-28s %8s %12s %12s %12s %12s %12s %12s\n" "span" "count" "total(s)"
         "self(s)" "min(s)" "p50(s)" "p99(s)" "max(s)");
    List.iter
      (fun (s : Span.stat) ->
        Buffer.add_string buf
          (Printf.sprintf "%-28s %8d %12.6f %12.6f %12.6f %12.6f %12.6f %12.6f\n" s.Span.span_name
             s.Span.count s.Span.total s.Span.self s.Span.min_s s.Span.p50 s.Span.p99 s.Span.max_s))
      stats
  end;
  Buffer.contents buf

let metrics_report ?registry () =
  let buf = Buffer.create 1024 in
  let items = Metrics.snapshot ?registry () in
  if List.is_empty items then Buffer.add_string buf "metrics: registry empty\n"
  else
    List.iter
      (fun (i : Metrics.item) ->
        let id = i.Metrics.item_name ^ labels_string i.Metrics.item_labels in
        match i.Metrics.item_view with
        | Metrics.Counter_view c -> Buffer.add_string buf (Printf.sprintf "%-52s %12d\n" id c)
        | Metrics.Gauge_view g -> Buffer.add_string buf (Printf.sprintf "%-52s %12.3f\n" id g)
        | Metrics.Histogram_view h ->
            Buffer.add_string buf
              (Printf.sprintf "%-52s count=%d sum=%.2f min=%.2f p50=%.2f p99=%.2f max=%.2f\n" id
                 h.Metrics.h_count h.Metrics.h_sum h.Metrics.h_min
                 (Metrics.histogram_quantile h 0.5) (Metrics.histogram_quantile h 0.99)
                 h.Metrics.h_max))
      items;
  Buffer.contents buf

let text_report ?registry () =
  "== metrics ==\n" ^ metrics_report ?registry () ^ "\n== spans ==\n" ^ span_report ()

(* ------------------------------------------------------------------ *)
(* JSON snapshot                                                       *)
(* ------------------------------------------------------------------ *)

let labels_json labels = Json.Obj (List.map (fun (k, v) -> (k, Json.String v)) labels)

let json_snapshot ?registry () =
  let counters = ref [] and gauges = ref [] and histograms = ref [] in
  List.iter
    (fun (i : Metrics.item) ->
      let base =
        [ ("name", Json.String i.Metrics.item_name); ("labels", labels_json i.Metrics.item_labels) ]
      in
      match i.Metrics.item_view with
      | Metrics.Counter_view c -> counters := Json.Obj (base @ [ ("value", Json.Int c) ]) :: !counters
      | Metrics.Gauge_view g -> gauges := Json.Obj (base @ [ ("value", Json.Float g) ]) :: !gauges
      | Metrics.Histogram_view h ->
          histograms :=
            Json.Obj
              (base
              @ [
                  ("count", Json.Int h.Metrics.h_count);
                  ("sum", Json.Float h.Metrics.h_sum);
                  ("min", Json.Float h.Metrics.h_min);
                  ("max", Json.Float h.Metrics.h_max);
                  ("p50", Json.Float (Metrics.histogram_quantile h 0.5));
                  ("p99", Json.Float (Metrics.histogram_quantile h 0.99));
                  ( "buckets",
                    Json.List
                      (List.map
                         (fun (le, c) -> Json.Obj [ ("le", Json.Float le); ("count", Json.Int c) ])
                         h.Metrics.h_buckets) );
                ])
            :: !histograms)
    (Metrics.snapshot ?registry ());
  let spans =
    List.map
      (fun (s : Span.stat) ->
        Json.Obj
          [
            ("name", Json.String s.Span.span_name);
            ("count", Json.Int s.Span.count);
            ("total", Json.Float s.Span.total);
            ("self", Json.Float s.Span.self);
            ("min", Json.Float s.Span.min_s);
            ("p50", Json.Float s.Span.p50);
            ("p99", Json.Float s.Span.p99);
            ("max", Json.Float s.Span.max_s);
          ])
      (Span.stats ())
  in
  Json.Obj
    [
      ("counters", Json.List (List.rev !counters));
      ("gauges", Json.List (List.rev !gauges));
      ("histograms", Json.List (List.rev !histograms));
      ("spans", Json.List spans);
    ]

(* ------------------------------------------------------------------ *)
(* Prometheus text exposition format                                   *)
(* ------------------------------------------------------------------ *)

let prometheus ?registry () =
  let buf = Buffer.create 2048 in
  let typed = Hashtbl.create 16 in
  let declare name kind =
    if not (Hashtbl.mem typed name) then begin
      Hashtbl.replace typed name ();
      Buffer.add_string buf (Printf.sprintf "# TYPE %s %s\n" name kind)
    end
  in
  List.iter
    (fun (i : Metrics.item) ->
      let name = i.Metrics.item_name and labels = i.Metrics.item_labels in
      match i.Metrics.item_view with
      | Metrics.Counter_view c ->
          declare name "counter";
          Buffer.add_string buf (Printf.sprintf "%s%s %d\n" name (labels_string labels) c)
      | Metrics.Gauge_view g ->
          declare name "gauge";
          Buffer.add_string buf (Printf.sprintf "%s%s %s\n" name (labels_string labels) (Json.float_repr g))
      | Metrics.Histogram_view h ->
          declare name "histogram";
          let cum = ref 0 in
          List.iter
            (fun (le, c) ->
              cum := !cum + c;
              Buffer.add_string buf
                (Printf.sprintf "%s_bucket%s %d\n" name
                   (labels_string (labels @ [ ("le", Json.float_repr le) ]))
                   !cum))
            h.Metrics.h_buckets;
          Buffer.add_string buf
            (Printf.sprintf "%s_bucket%s %d\n" name
               (labels_string (labels @ [ ("le", "+Inf") ]))
               h.Metrics.h_count);
          Buffer.add_string buf
            (Printf.sprintf "%s_sum%s %s\n" name (labels_string labels) (Json.float_repr h.Metrics.h_sum));
          Buffer.add_string buf
            (Printf.sprintf "%s_count%s %d\n" name (labels_string labels) h.Metrics.h_count))
    (Metrics.snapshot ?registry ());
  let spans = Span.stats () in
  List.iter
    (fun (s : Span.stat) ->
      declare "ftr_span_seconds" "summary";
      let l q = labels_string [ ("name", s.Span.span_name); ("quantile", q) ] in
      Buffer.add_string buf
        (Printf.sprintf "ftr_span_seconds%s %s\n" (l "0.5") (Json.float_repr s.Span.p50));
      Buffer.add_string buf
        (Printf.sprintf "ftr_span_seconds%s %s\n" (l "0.99") (Json.float_repr s.Span.p99));
      Buffer.add_string buf
        (Printf.sprintf "ftr_span_seconds_sum%s %s\n"
           (labels_string [ ("name", s.Span.span_name) ])
           (Json.float_repr s.Span.total));
      Buffer.add_string buf
        (Printf.sprintf "ftr_span_seconds_count%s %d\n"
           (labels_string [ ("name", s.Span.span_name) ])
           s.Span.count))
    spans;
  (* Self time is its own family: a summary's lines must stay together. *)
  List.iter
    (fun (s : Span.stat) ->
      declare "ftr_span_self_seconds_total" "counter";
      Buffer.add_string buf
        (Printf.sprintf "ftr_span_self_seconds_total%s %s\n"
           (labels_string [ ("name", s.Span.span_name) ])
           (Json.float_repr s.Span.self)))
    spans;
  Buffer.contents buf
