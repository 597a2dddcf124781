type event = {
  time : float;
  seq : int; (* tie-breaker: FIFO among same-time events, for determinism *)
  id : int;
  action : unit -> unit;
}

type t = {
  heap : event Heap.t;
  cancelled : (int, unit) Hashtbl.t;
  mutable now : float;
  mutable next_seq : int;
  mutable next_id : int;
  mutable executed : int;
  mutable reported_seq : int; (* pushes already added to heap_pushes_total *)
  mutable high_water : int; (* queue length before the fullest pop, telemetry on *)
}

type handle = int

let compare_events a b =
  let c = Float.compare a.time b.time in
  if c <> 0 then c else Int.compare a.seq b.seq

let create () =
  {
    heap = Heap.create ~compare:compare_events;
    cancelled = Hashtbl.create 64;
    now = 0.0;
    next_seq = 0;
    next_id = 0;
    executed = 0;
    reported_seq = 0;
    high_water = 0;
  }

let now t = t.now

let executed_events t = t.executed

let pending_events t = Heap.length t.heap - Hashtbl.length t.cancelled

let schedule_at t ~time action =
  if Float.is_nan time then invalid_arg "Engine.schedule_at: NaN time";
  if time < t.now then invalid_arg "Engine.schedule_at: time in the past";
  let id = t.next_id in
  t.next_id <- id + 1;
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  Heap.push t.heap { time; seq; id; action };
  id

let schedule_after t ~delay action =
  if delay < 0.0 then invalid_arg "Engine.schedule_after: negative delay";
  schedule_at t ~time:(t.now +. delay) action

(* Lazy deletion: cancelled ids are skipped (and forgotten) at pop time. *)
let cancel t handle = Hashtbl.replace t.cancelled handle ()

let rec pop_live t =
  match Heap.pop t.heap with
  | Some ev when Hashtbl.mem t.cancelled ev.id ->
      Hashtbl.remove t.cancelled ev.id;
      pop_live t
  | next -> next

let step t =
  let depth = Heap.length t.heap in
  match pop_live t with
  | None -> false
  | Some ev ->
      if Ftr_debug.Debug.enabled () && ev.time < t.now then
        Ftr_debug.Debug.failf "Engine: event #%d at time %g popped with the clock already at %g"
          ev.id ev.time t.now;
      t.now <- ev.time;
      t.executed <- t.executed + 1;
      (* Telemetry: the flight recorder learns the simulation clock, so
         trace steps recorded inside [ev.action] carry sim-time stamps
         (the Chrome export's timeline), and the queue's high-water mark
         is taken here for [run] to report: the queue shrinks only at
         pops, so its length before each pop gives its maximum. One bool
         load when FTR_OBS is off. *)
      if Ftr_obs.Flag.enabled () then begin
        Ftr_obs.Tracing.note_time ev.time;
        if depth > t.high_water then t.high_water <- depth
      end;
      ev.action ();
      true

let run ?max_events ?until t =
  let budget = match max_events with None -> max_int | Some m -> m in
  let horizon = match until with None -> infinity | Some h -> h in
  let rec loop remaining =
    if remaining = 0 then ()
    else
      match Heap.peek t.heap with
      | None -> ()
      | Some ev ->
          if ev.time > horizon then ()
          else if step t then loop (remaining - 1)
          else ()
  in
  if Ftr_obs.Flag.enabled () then begin
    let executed_before = t.executed in
    Ftr_obs.Span.time "engine.run" (fun () -> loop budget);
    (* Telemetry, once per run: the events it executed, the pushes since
       the last report, the queue depth it leaves and the process-wide
       high-water mark of every engine's queue. *)
    let events = t.executed - executed_before and pushes = t.next_seq - t.reported_seq in
    if events > 0 then Ftr_obs.Metrics.incr_by "engine_events_total" events;
    if pushes > 0 then Ftr_obs.Metrics.incr_by "heap_pushes_total" pushes;
    t.reported_seq <- t.next_seq;
    Ftr_obs.Metrics.set_gauge "engine_queue_depth" (float_of_int (pending_events t));
    let high = max t.high_water (Heap.length t.heap) in
    let hw = Ftr_obs.Metrics.gauge_value "heap_high_water" in
    if high > 0 && (Float.is_nan hw || float_of_int high > hw) then
      Ftr_obs.Metrics.set_gauge "heap_high_water" (float_of_int high)
  end
  else loop budget

let drain t =
  Heap.clear t.heap;
  Hashtbl.reset t.cancelled

let pending_slots t =
  Array.init (Heap.length t.heap) (fun i ->
      let ev = Heap.slot t.heap i in
      (ev.time, ev.seq))
