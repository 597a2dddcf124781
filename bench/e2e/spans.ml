(* ftr-lint: disable-file R1 T2 -- the span recorder reads the monotonic clock; timing is the measurement *)

(* The traced run's span recorder. Every call the benchmark makes into a
   layer's public function is bracketed by [enter]/[leave]; spans nest on
   a stack (workload -> setup | measure -> window | tick -> calls) and
   stay in memory until the run ends. Per span name it keeps the count,
   the total and self time (a span's duration minus the part its
   children cover) and every duration, for percentiles. The first
   [keep] (100,000) spans are also kept whole (name, start, end, parent, lookup
   id) for the Chrome trace-event export.

   When the recorder is inactive, [enter]/[leave] return at once: the
   untraced run executes the same code with the timers off. Pushing a
   span allocates nothing on the minor heap, so per-call spans do not
   disturb the allocation counts they sit next to. [enter_at]/[leave_at]
   take explicit times, for tests. *)

let now_ns () = Int64.to_int (Monotonic_clock.clock_linux_get_time ())

let max_depth = 64

type t = {
  mutable active : bool;
  ids : (string, int) Hashtbl.t;
  names : string Queue.t; (* id -> name, in registration order *)
  mutable count : int array;
  mutable total : int array; (* ns *)
  mutable self : int array; (* ns *)
  mutable durations : Vec.t array; (* ns, every closed span *)
  stack_id : int array;
  stack_start : int array;
  stack_child : int array; (* ns covered by closed children *)
  stack_rec : int array; (* record index, or -1 once [keep] is reached *)
  mutable depth : int;
  origin : int;
  rec_name : Vec.t;
  rec_start : Vec.t;
  rec_end : Vec.t;
  rec_parent : Vec.t;
  rec_lookup : Vec.t;
}

let keep = 100_000

let create () =
  {
    active = false;
    ids = Hashtbl.create 32;
    names = Queue.create ();
    count = [||];
    total = [||];
    self = [||];
    durations = [||];
    stack_id = Array.make max_depth 0;
    stack_start = Array.make max_depth 0;
    stack_child = Array.make max_depth 0;
    stack_rec = Array.make max_depth (-1);
    depth = 0;
    origin = now_ns ();
    rec_name = Vec.create ();
    rec_start = Vec.create ();
    rec_end = Vec.create ();
    rec_parent = Vec.create ();
    rec_lookup = Vec.create ();
  }

(* Switch only between a matched enter/leave pair's siblings, never inside
   one: a span opened while inactive would be closed by a recorder that
   never saw it open. *)
let set_active t on = t.active <- on

let id t name =
  match Hashtbl.find_opt t.ids name with
  | Some i -> i
  | None ->
      let i = Queue.length t.names in
      Hashtbl.replace t.ids name i;
      Queue.add name t.names;
      let grow a fill = Array.append a [| fill |] in
      t.count <- grow t.count 0;
      t.total <- grow t.total 0;
      t.self <- grow t.self 0;
      t.durations <- Array.append t.durations [| Vec.create () |];
      i

let enter_at t i ~lookup ~start =
  if t.depth >= max_depth then invalid_arg "Spans.enter: nesting too deep";
  let d = t.depth in
  t.stack_id.(d) <- i;
  t.stack_start.(d) <- start;
  t.stack_child.(d) <- 0;
  t.stack_rec.(d) <-
    (if Vec.length t.rec_name < keep then begin
       let r = Vec.length t.rec_name in
       Vec.push t.rec_name i;
       Vec.push t.rec_start (start - t.origin);
       Vec.push t.rec_end (start - t.origin);
       Vec.push t.rec_parent (if d = 0 then -1 else t.stack_rec.(d - 1));
       Vec.push t.rec_lookup lookup;
       r
     end
     else -1);
  t.depth <- d + 1

let leave_at t ~stop =
  if t.depth = 0 then invalid_arg "Spans.leave: no span open";
  let d = t.depth - 1 in
  t.depth <- d;
  let i = t.stack_id.(d) in
  let dur = stop - t.stack_start.(d) in
  t.count.(i) <- t.count.(i) + 1;
  t.total.(i) <- t.total.(i) + dur;
  t.self.(i) <- t.self.(i) + (dur - t.stack_child.(d));
  Vec.push t.durations.(i) dur;
  if d > 0 then t.stack_child.(d - 1) <- t.stack_child.(d - 1) + dur;
  let r = t.stack_rec.(d) in
  if r >= 0 then Vec.set t.rec_end r (stop - t.origin)

let enter t i = if t.active then enter_at t i ~lookup:(-1) ~start:(now_ns ())

(* [lookup] ties the spans of one request together. *)
let enter_lookup t i lookup = if t.active then enter_at t i ~lookup ~start:(now_ns ())

let leave t = if t.active then leave_at t ~stop:(now_ns ())

(* ------------------------------------------------------------------ *)
(* Reading the record                                                  *)
(* ------------------------------------------------------------------ *)

let names t = List.of_seq (Queue.to_seq t.names)

let find t name = Hashtbl.find_opt t.ids name

let count t name = match find t name with Some i -> t.count.(i) | None -> 0

let total_s t name =
  match find t name with Some i -> float_of_int t.total.(i) *. 1e-9 | None -> 0.0

let self_s t name =
  match find t name with Some i -> float_of_int t.self.(i) *. 1e-9 | None -> 0.0

(* Nearest-rank percentile of a span's durations, in seconds; 0 when the
   span never ran (an idle layer). *)
let percentile_s t name q =
  match find t name with
  | Some i when t.count.(i) > 0 ->
      let s = Stats.samples () in
      let v = t.durations.(i) in
      for k = 0 to Vec.length v - 1 do
        Stats.add s (float_of_int (Vec.get v k) *. 1e-9)
      done;
      Stats.percentile s q
  | Some _ | None -> 0.0

(* Chrome trace-event JSON ("X" complete events, microseconds), loadable
   in chrome://tracing or Perfetto. *)
let chrome_json t =
  let module J = Ftr_obs.Json in
  let names = Array.of_list (names t) in
  let us ns = J.Float (float_of_int ns /. 1e3) in
  let events =
    List.init (Vec.length t.rec_name) (fun r ->
        let args =
          [ ("parent", J.Int (Vec.get t.rec_parent r)) ]
          @ (let l = Vec.get t.rec_lookup r in
             if l >= 0 then [ ("lookup", J.Int l) ] else [])
        in
        J.Obj
          [
            ("name", J.String names.(Vec.get t.rec_name r));
            ("ph", J.String "X");
            ("ts", us (Vec.get t.rec_start r));
            ("dur", us (Vec.get t.rec_end r - Vec.get t.rec_start r));
            ("pid", J.Int 1);
            ("tid", J.Int 1);
            ("args", J.Obj (("id", J.Int r) :: args));
          ])
  in
  J.Obj [ ("traceEvents", J.List events); ("displayTimeUnit", J.String "ms") ]
