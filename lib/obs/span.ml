(* Span profiler: timers with nesting, aggregated per span name into
   count / total / self / min / max / p50 / p99. Self time is a span's
   duration minus the part its closed children cover, so the selves of
   a nested stack add up to the root's total. Percentiles are exact over
   a ring of the [sample_capacity] most recent durations (recent-window
   percentiles, not lifetime, once a span exceeds it).

   Each name is resolved to an int id once per [time] call; the open
   spans sit on preallocated id/start/child arrays and the aggregates are
   int fields, so a [time] pair allocates nothing on the minor heap,
   with telemetry on or off. Only the stack's growth past its deepest
   nesting so far and a name's first recording allocate. *)

module Quantile = Ftr_stats.Quantile

let sample_capacity = 4096

(* The one clock reader of lib/ (ftr_lint T2 allowlists this file):
   monotonic nanoseconds. Tests inject a deterministic clock. *)
let monotonic () = Int64.to_int (Monotonic_clock.clock_linux_get_time ())

let clock = ref monotonic

(* ftr-lint: disable T6 -- seam: tests drive deterministic durations through it *)
let set_clock f = clock := f

(* The injection point is written by [set_clock]/[reset] before the pool
   spawns domains; workers only dereference. ftr-lint: disable T1 *)
let now () = !clock ()

let seconds ns = float_of_int ns /. 1e9

(* Seconds since [t0], an earlier [now ()]. *)
let elapsed t0 = seconds (now () - t0)

type record = {
  name : string;
  mutable count : int;
  mutable total : int; (* ns, as every field below *)
  mutable self : int;
  mutable min : int;
  mutable max : int;
  samples : int array; (* ring: duration [k] at [k mod sample_capacity] *)
}

let ids : (string, int) Hashtbl.t = Hashtbl.create 16

let records : record array ref = ref [||]

let id_of name =
  match Hashtbl.find ids name with
  | i -> i
  | exception Not_found ->
      if String.equal name "" then invalid_arg "Span.time: span name must be non-empty";
      let i = Array.length !records in
      let r =
        { name; count = 0; total = 0; self = 0; min = 0; max = 0; samples = Array.make sample_capacity 0 }
      in
      records := Array.append !records [| r |];
      Hashtbl.replace ids name i;
      i

(* Open spans, outermost first: id, start, and the time their closed
   children covered. *)
let open_spans = ref 0

let stack_id = ref (Array.make 16 0)

let stack_start = ref (Array.make 16 0)

let stack_child = ref (Array.make 16 0)

let push i =
  let d = !open_spans in
  if d = Array.length !stack_id then begin
    let grow a = a := Array.append !a (Array.make d 0) in
    grow stack_id;
    grow stack_start;
    grow stack_child
  end;
  !stack_id.(d) <- i;
  !stack_child.(d) <- 0;
  open_spans := d + 1;
  !stack_start.(d) <- now ()

let pop () =
  let stop = now () in
  let d = !open_spans - 1 in
  open_spans := d;
  let dur = stop - !stack_start.(d) in
  let r = !records.(!stack_id.(d)) in
  let k = r.count in
  r.count <- k + 1;
  r.total <- r.total + dur;
  r.self <- r.self + dur - !stack_child.(d);
  if k = 0 || dur < r.min then r.min <- dur;
  if k = 0 || dur > r.max then r.max <- dur;
  r.samples.(k mod sample_capacity) <- dur;
  if d > 0 then !stack_child.(d - 1) <- !stack_child.(d - 1) + dur

(* Time [f] under [name]. The enabled decision is taken once, so a mode
   flip inside [f] cannot unbalance the stack. *)
let time name f =
  if not (Flag.enabled ()) then f ()
  else begin
    push (id_of name);
    match f () with
    | v ->
        pop ();
        v
    | exception e ->
        pop ();
        raise e
  end

(* Forget every aggregate and restore the monotonic clock. Names keep
   their ids, so spans open across a reset still close cleanly. *)
let reset () =
  clock := monotonic;
  Array.iter (fun (r : record) -> r.count <- 0; r.total <- 0; r.self <- 0) !records

(* ------------------------------------------------------------------ *)
(* Aggregated statistics, in seconds                                   *)
(* ------------------------------------------------------------------ *)

type stat = {
  span_name : string;
  count : int;
  total : float; (* inclusive of children *)
  self : float; (* exclusive: total minus the closed children *)
  min_s : float;
  max_s : float;
  p50 : float;
  p99 : float;
}

let stat_of (r : record) =
  let window = Array.init (min r.count sample_capacity) (fun k -> seconds r.samples.(k)) in
  Array.sort Float.compare window;
  {
    span_name = r.name;
    count = r.count;
    total = seconds r.total;
    self = seconds r.self;
    min_s = seconds r.min;
    max_s = seconds r.max;
    p50 = Quantile.of_sorted window 0.5;
    p99 = Quantile.of_sorted window 0.99;
  }

let find name =
  match Hashtbl.find_opt ids name with
  | Some i when !records.(i).count > 0 -> Some (stat_of !records.(i))
  | Some _ | None -> None

let stats () =
  Array.to_list !records
  |> List.filter (fun (r : record) -> r.count > 0)
  |> List.map stat_of
  |> List.sort (fun a b -> String.compare a.span_name b.span_name)
