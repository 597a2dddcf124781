(* Span profiler: wall-clock timers with nesting, aggregated per span name
   into count / total / min / max / p50 / p99. Aggregation reuses
   [Ftr_stats.Summary] (count, total, min, max) and [Ftr_stats.Quantile]
   (exact percentiles over a bounded ring of the most recent durations —
   recent-window percentiles, not lifetime, once a span exceeds
   [sample_capacity] recordings).

   The clock is injectable ([set_clock]) so tests drive deterministic
   durations; the default is [Unix.gettimeofday], the finest-grained clock
   the stdlib toolchain offers here. Spans instrument coarse operations
   (engine runs, network builds, bench sections), not per-hop paths, so a
   closure per [time] call is acceptable; the per-hop layers use the
   [Metrics] counters behind a [Flag.enabled] guard instead. *)

module Summary = Ftr_stats.Summary
module Quantile = Ftr_stats.Quantile

let sample_capacity = 4096

type record = {
  summary : Summary.t;
  samples : float array; (* ring buffer of the most recent durations *)
  mutable filled : int;
  mutable next : int;
}

let records : (string, record) Hashtbl.t = Hashtbl.create 16

(* Open spans, innermost first: (name, start time). *)
let stack : (string * float) list ref = ref []

let clock = ref (fun () -> Unix.gettimeofday ())

(* ftr-lint: disable T6 -- seam: tests drive deterministic span durations through it *)
let set_clock f = clock := f

let reset () =
  Hashtbl.reset records;
  stack := []

(* ftr-lint: disable T6 -- ROADMAP item 1: the recorder rewrite replaces the span stack *)
let depth () = List.length !stack

let record_duration name dt =
  let r =
    match Hashtbl.find_opt records name with
    | Some r -> r
    | None ->
        let r =
          { summary = Summary.create (); samples = Array.make sample_capacity 0.0; filled = 0; next = 0 }
        in
        Hashtbl.replace records name r;
        r
  in
  Summary.add r.summary dt;
  r.samples.(r.next) <- dt;
  r.next <- (r.next + 1) mod sample_capacity;
  if r.filled < sample_capacity then r.filled <- r.filled + 1

let enter_always name =
  if String.equal name "" then invalid_arg "Span.enter: span name must be non-empty";
  stack := (name, !clock ()) :: !stack

let leave_always name =
  match !stack with
  | (top, t0) :: rest when top = name ->
      stack := rest;
      record_duration name (!clock () -. t0)
  | (top, _) :: _ ->
      invalid_arg (Printf.sprintf "Span.leave: closing %S but innermost open span is %S" name top)
  | [] -> invalid_arg (Printf.sprintf "Span.leave: closing %S with no span open" name)

(* ftr-lint: disable T6 -- ROADMAP item 1: the recorder rewrite replaces the span stack *)
let enter name = if Flag.enabled () then enter_always name

(* ftr-lint: disable T6 -- ROADMAP item 1: the recorder rewrite replaces the span stack *)
let leave name = if Flag.enabled () then leave_always name

(* Time [f] under [name]. The enabled decision is taken once, so a mode
   flip inside [f] cannot unbalance the stack. *)
let time name f =
  if not (Flag.enabled ()) then f ()
  else begin
    enter_always name;
    match f () with
    | v ->
        leave_always name;
        v
    | exception e ->
        leave_always name;
        raise e
  end

(* ------------------------------------------------------------------ *)
(* Aggregated statistics                                               *)
(* ------------------------------------------------------------------ *)

type stat = {
  span_name : string;
  count : int;
  total : float;
  min_s : float;
  max_s : float;
  p50 : float;
  p99 : float;
}

let stat_of name r =
  let window = Array.sub r.samples 0 r.filled in
  Array.sort Float.compare window;
  {
    span_name = name;
    count = Summary.count r.summary;
    total = Summary.total r.summary;
    min_s = Summary.min_value r.summary;
    max_s = Summary.max_value r.summary;
    p50 = (if r.filled = 0 then nan else Quantile.of_sorted window 0.5);
    p99 = (if r.filled = 0 then nan else Quantile.of_sorted window 0.99);
  }

let find name =
  Option.map (stat_of name) (Hashtbl.find_opt records name)

let stats () =
  Hashtbl.fold (fun name r acc -> stat_of name r :: acc) records []
  |> List.sort (fun a b -> String.compare a.span_name b.span_name)
