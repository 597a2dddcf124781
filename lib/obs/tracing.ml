(* Route flight recorder: per-route causal traces (docs/OBSERVABILITY.md,
   "Tracing").

   Aggregate telemetry ([Metrics], [Span]) answers "how often do routes
   fail"; this module answers "why did *this* route fail" — the hop-by-hop
   decision record the paper makes analytically in Sections 4 and 6: every
   candidate neighbour scanned, its distance to the target, the verdict
   that excluded it (dead link, dead node, already tried, not closer), the
   chosen edge, and the backtrack/redirect events of the recovery
   strategies.

   Contracts, in the order they matter:

   - Zero overhead when off. [begin_route] returns the shared [null]
     sentinel unless both [Flag.enabled] and the recorder are on; callers
     keep one immediate bool ([is_live]) and guard every recording call on
     it, so a hot routing loop pays one branch per candidate and allocates
     nothing. All allocation happens inside this module, behind the gate.

   - Determinism. Trace identity derives from [(seed, route index)]
     through a splitmix-style mixer — no clocks, no [Random], no pointer
     identity — so the same seeded run produces byte-identical traces, and
     worker domains (which suppress [Flag]) record nothing, keeping
     rendered output invariant across `--jobs 1/2/4` and `FTR_EXEC_SEQ=1`.
     Full-fidelity sampling is a function of the trace id, not of arrival
     order.

   - Bounded memory. Completed traces land in a bounded ring (the last N
     routes); failed routes are additionally pinned in their own bounded
     list so forensics survive a burst of later successes. Per-trace step
     counts are capped; records past the cap are counted, not stored.

   Time is ambient: [Sim.Engine] publishes the simulation clock through
   [note_time] while dispatching events, so overlay lookups get sim-time
   stamps (the Chrome trace-event export feeds on them) and static routes
   fall back to hop counts. *)

type verdict =
  | Chosen
  | Dead_link
  | Dead_node
  | Already_tried
  | Not_closer
  | Not_best
  | Overshoot

let verdict_label = function
  | Chosen -> "chosen"
  | Dead_link -> "dead_link"
  | Dead_node -> "dead_node"
  | Already_tried -> "already_tried"
  | Not_closer -> "not_closer"
  | Not_best -> "not_best"
  | Overshoot -> "overshoot"

type step =
  | Hop of { hop : int; node : int; time : float }
  | Candidate of { hop : int; cur : int; cand : int; dist : int; verdict : verdict }
  | Backtrack of { hop : int; from_node : int; to_node : int }
  | Reroute of { hop : int; from_node : int; target : int }

type status =
  | Pending
  | Done_delivered of { hops : int }
  | Done_failed of { hops : int; stuck_at : int; reason : string }

type t = {
  live : bool; (* false only for the [null] sentinel *)
  id : int64;
  t_seed : int;
  t_index : int;
  src : int;
  dst : int;
  full : bool; (* sampled in for candidate-level fidelity *)
  start_time : float;
  mutable nodes_view : string;
  mutable links_view : string;
  mutable strategy : string;
  mutable rev_steps : step list; (* newest first *)
  mutable n_steps : int;
  mutable dropped_steps : int;
  mutable hop_count : int;
  mutable sim_timed : bool; (* true once a hop carried a sim-time stamp *)
  mutable end_time : float;
  mutable status : status;
}

let null =
  {
    live = false;
    id = 0L;
    t_seed = 0;
    t_index = 0;
    src = 0;
    dst = 0;
    full = false;
    start_time = 0.0;
    nodes_view = "";
    links_view = "";
    strategy = "";
    rev_steps = [];
    n_steps = 0;
    dropped_steps = 0;
    hop_count = 0;
    sim_timed = false;
    end_time = 0.0;
    status = Pending;
  }

let is_live tr = tr.live

(* ------------------------------------------------------------------ *)
(* Recorder state and configuration                                    *)
(* ------------------------------------------------------------------ *)

(* FTR_OBS_TRACE=0 turns the recorder off while leaving the rest of the
   telemetry layer alone; unset or any other value keeps it riding the
   FTR_OBS master switch ([Flag.enabled] is consulted on every
   [begin_route], so the recorder is inert whenever telemetry is off). *)
let recording_ref =
  ref
    (match Sys.getenv_opt "FTR_OBS_TRACE" with
    | Some ("0" | "false" | "off" | "no") -> false
    | Some _ | None -> true)

let set_recording on = recording_ref := on

let recording () = Flag.enabled () && !recording_ref

let seed_ref = ref 0

let next_index = ref 0

let sample_every = ref 1

let force_full_ref = ref false

let ring_capacity = ref 32

let pin_capacity = ref 16

let max_steps = ref 4096

(* The run seed traces derive their identity from; resets the route index
   so a re-run of the same seeded workload reproduces the same ids. *)
let set_seed s =
  seed_ref := s;
  next_index := 0

let set_next_index i =
  if i < 0 then invalid_arg "Tracing.set_next_index: index must be non-negative";
  next_index := i

(* ftr-lint: disable T6 -- seam: tests make trace sampling deterministic through it *)
let set_sampling ~every =
  if every < 1 then invalid_arg "Tracing.set_sampling: every must be >= 1";
  sample_every := every

let force_full on = force_full_ref := on

(* ftr-lint: disable T6 -- seam: tests shrink the recorder's bounds through it *)
let set_capacity ?ring ?pinned ?steps () =
  (match ring with
  | Some r when r < 1 -> invalid_arg "Tracing.set_capacity: ring must be >= 1"
  | Some r -> ring_capacity := r
  | None -> ());
  (match pinned with
  | Some p when p < 1 -> invalid_arg "Tracing.set_capacity: pinned must be >= 1"
  | Some p -> pin_capacity := p
  | None -> ());
  match steps with
  | Some s when s < 1 -> invalid_arg "Tracing.set_capacity: steps must be >= 1"
  | Some s -> max_steps := s
  | None -> ()

(* Ambient simulation clock, published by [Sim.Engine] while it dispatches
   events; NaN means "no simulation running" and hop counts stand in. *)
let now_ref = ref nan

let note_time t = now_ref := t

(* Retained and pinned traces, newest first, each list bounded by its
   capacity (the oldest entry falls off). A failed route appears in both:
   the ring answers "what happened recently", the pins answer "what went
   wrong" even after the ring has cycled. *)
let retained : t list ref = ref []

let pinned : t list ref = ref []

let evicted_count = ref 0

let completed_count = ref 0

let reset () =
  retained := [];
  pinned := [];
  evicted_count := 0;
  completed_count := 0;
  next_index := 0;
  now_ref := nan

let retained_traces () = List.rev !retained

let pinned_traces () = List.rev !pinned

let retained_count () = List.length !retained

let pinned_count () = List.length !pinned

let evicted () = !evicted_count

let completed () = !completed_count

let latest () = match !retained with [] -> None | tr :: _ -> Some tr

let steps tr = List.rev tr.rev_steps

let step_count tr = tr.n_steps

(* ------------------------------------------------------------------ *)
(* Trace identity and lifecycle                                        *)
(* ------------------------------------------------------------------ *)

(* Splitmix64 finalizer: a bijective avalanche over the (seed, index)
   pair. Implemented inline so [lib/obs] stays dependency-free below
   [ftr_stats]. *)
let mix64 z =
  let open Int64 in
  let z = mul (logxor z (shift_right_logical z 30)) 0xbf58476d1ce4e5b9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94d049bb133111ebL in
  logxor z (shift_right_logical z 31)

let trace_id ~seed ~index =
  mix64
    (Int64.logxor
       (mix64 (Int64.of_int seed))
       (Int64.mul 0x9e3779b97f4a7c15L (Int64.of_int (index + 1))))

let id_hex tr = Printf.sprintf "%016Lx" tr.id

(* Deterministic hash-based sampling: whether a trace records candidate-
   level detail is a pure function of its id, so the set of full-fidelity
   traces is identical across job counts and re-runs. *)
let sampled_full id =
  !force_full_ref
  || !sample_every = 1
  || Int64.rem (Int64.logand id Int64.max_int) (Int64.of_int !sample_every) = 0L

let begin_route ~src ~dst =
  if not (recording ()) then null
  else begin
    let index = !next_index in
    next_index := index + 1;
    let id = trace_id ~seed:!seed_ref ~index in
    let time = if Float.is_nan !now_ref then 0.0 else !now_ref in
    {
      live = true;
      id;
      t_seed = !seed_ref;
      t_index = index;
      src;
      dst;
      full = sampled_full id;
      start_time = time;
      nodes_view = "";
      links_view = "";
      strategy = "";
      rev_steps = [];
      n_steps = 0;
      dropped_steps = 0;
      hop_count = 0;
      sim_timed = not (Float.is_nan !now_ref);
      end_time = time;
      status = Pending;
    }
  end

let set_context tr ~nodes ~links ~strategy =
  if tr.live then begin
    tr.nodes_view <- nodes;
    tr.links_view <- links;
    tr.strategy <- strategy
  end

let push_step tr s =
  if tr.n_steps >= !max_steps then tr.dropped_steps <- tr.dropped_steps + 1
  else begin
    tr.rev_steps <- s :: tr.rev_steps;
    tr.n_steps <- tr.n_steps + 1
  end

let hop tr ~node =
  if tr.live then begin
    tr.hop_count <- tr.hop_count + 1;
    let time =
      if Float.is_nan !now_ref then float_of_int tr.hop_count
      else begin
        tr.sim_timed <- true;
        !now_ref
      end
    in
    tr.end_time <- time;
    push_step tr (Hop { hop = tr.hop_count; node; time })
  end

let candidate tr ~cur ~cand ~dist verdict =
  if tr.live && tr.full then
    push_step tr (Candidate { hop = tr.hop_count; cur; cand; dist; verdict })

let backtrack tr ~from_node ~to_node =
  if tr.live then push_step tr (Backtrack { hop = tr.hop_count; from_node; to_node })

let reroute tr ~from_node ~target =
  if tr.live then push_step tr (Reroute { hop = tr.hop_count; from_node; target })

let rec take n = function [] -> [] | x :: rest -> if n = 0 then [] else x :: take (n - 1) rest

let finish tr ~delivered ~hops ~stuck_at ~reason =
  if tr.live then begin
    tr.status <-
      (if delivered then Done_delivered { hops } else Done_failed { hops; stuck_at; reason });
    if not (Float.is_nan !now_ref) then tr.end_time <- !now_ref;
    completed_count := !completed_count + 1;
    if List.length !retained >= !ring_capacity then incr evicted_count;
    retained := take !ring_capacity (tr :: !retained);
    if not delivered then pinned := take !pin_capacity (tr :: !pinned)
  end

(* ------------------------------------------------------------------ *)
(* Human-readable hop tree                                             *)
(* ------------------------------------------------------------------ *)

let status_line tr =
  match tr.status with
  | Pending -> "outcome: PENDING"
  | Done_delivered { hops } -> Printf.sprintf "outcome: DELIVERED in %d hops" hops
  | Done_failed { hops; stuck_at; reason } ->
      Printf.sprintf "outcome: FAILED after %d hops: %s, stuck at %d" hops reason stuck_at

(* Forensics summary: how many candidates each verdict claimed, plus the
   recovery-event counts — the "why it got stuck" line `p2psim explain`
   leads with. Verdict order is the declaration order, fixed. *)
let forensics tr =
  let n_verdicts = 7 in
  let counts = Array.make n_verdicts 0 in
  let slot = function
    | Chosen -> 0
    | Dead_link -> 1
    | Dead_node -> 2
    | Already_tried -> 3
    | Not_closer -> 4
    | Not_best -> 5
    | Overshoot -> 6
  in
  let backtracks = ref 0 and reroutes = ref 0 in
  List.iter
    (fun s ->
      match s with
      | Candidate { verdict; _ } -> counts.(slot verdict) <- counts.(slot verdict) + 1
      | Backtrack _ -> incr backtracks
      | Reroute _ -> incr reroutes
      | Hop _ -> ())
    tr.rev_steps;
  let scanned = Array.fold_left ( + ) 0 counts in
  let buf = Buffer.create 128 in
  Buffer.add_string buf (Printf.sprintf "scanned %d candidates" scanned);
  let labels = [| Chosen; Dead_link; Dead_node; Already_tried; Not_closer; Not_best; Overshoot |] in
  Array.iteri
    (fun i v ->
      if counts.(i) > 0 then
        Buffer.add_string buf (Printf.sprintf ", %d %s" counts.(i) (verdict_label v)))
    labels;
  if !backtracks > 0 then Buffer.add_string buf (Printf.sprintf "; %d backtracks" !backtracks);
  if !reroutes > 0 then Buffer.add_string buf (Printf.sprintf "; %d reroutes" !reroutes);
  Buffer.contents buf

let render tr =
  if not tr.live then "(null trace)\n"
  else begin
    let buf = Buffer.create 1024 in
    Buffer.add_string buf
      (Printf.sprintf "trace %s  route #%d  seed %d  %d -> %d\n" (id_hex tr) tr.t_index tr.t_seed
         tr.src tr.dst);
    Buffer.add_string buf
      (Printf.sprintf "  strategy=%s nodes=%s links=%s fidelity=%s\n"
         (if String.equal tr.strategy "" then "?" else tr.strategy)
         (if String.equal tr.nodes_view "" then "?" else tr.nodes_view)
         (if String.equal tr.links_view "" then "?" else tr.links_view)
         (if tr.full then "full" else "hops-only"));
    let at = ref (-1) in
    List.iter
      (fun s ->
        match s with
        | Candidate { cur; cand; dist; verdict; hop } ->
            if cur <> !at then begin
              Buffer.add_string buf (Printf.sprintf "  at %d (hop %d):\n" cur hop);
              at := cur
            end;
            Buffer.add_string buf
              (Printf.sprintf "    cand %-6d d=%-6d %s\n" cand dist (verdict_label verdict))
        | Hop { hop; node; time } ->
            at := -1;
            if tr.sim_timed then
              Buffer.add_string buf (Printf.sprintf "  hop %d -> %d  t=%g\n" hop node time)
            else Buffer.add_string buf (Printf.sprintf "  hop %d -> %d\n" hop node)
        | Backtrack { hop; from_node; to_node } ->
            at := -1;
            Buffer.add_string buf
              (Printf.sprintf "  backtrack (hop %d): %d -> %d\n" hop from_node to_node)
        | Reroute { hop; from_node; target } ->
            at := -1;
            Buffer.add_string buf
              (Printf.sprintf "  reroute (hop %d): restart from %d toward random target %d\n" hop
                 from_node target))
      (steps tr);
    if tr.dropped_steps > 0 then
      Buffer.add_string buf
        (Printf.sprintf "  [%d steps dropped at cap %d]\n" tr.dropped_steps !max_steps);
    Buffer.add_string buf (Printf.sprintf "  %s\n" (status_line tr));
    Buffer.add_string buf (Printf.sprintf "  forensics: %s\n" (forensics tr));
    Buffer.contents buf
  end

(* ------------------------------------------------------------------ *)
(* JSON and JSONL export                                               *)
(* ------------------------------------------------------------------ *)

let step_json tr s =
  let common hop rest = ("trace", Json.String (id_hex tr)) :: ("hop", Json.Int hop) :: rest in
  match s with
  | Hop { hop; node; time } ->
      common hop
        [ ("step", Json.String "hop"); ("node", Json.Int node); ("time", Json.Float time) ]
  | Candidate { hop; cur; cand; dist; verdict } ->
      common hop
        [
          ("step", Json.String "candidate");
          ("cur", Json.Int cur);
          ("cand", Json.Int cand);
          ("dist", Json.Int dist);
          ("verdict", Json.String (verdict_label verdict));
        ]
  | Backtrack { hop; from_node; to_node } ->
      common hop
        [
          ("step", Json.String "backtrack");
          ("from", Json.Int from_node);
          ("to", Json.Int to_node);
        ]
  | Reroute { hop; from_node; target } ->
      common hop
        [
          ("step", Json.String "reroute");
          ("from", Json.Int from_node);
          ("target", Json.Int target);
        ]

let status_json tr =
  match tr.status with
  | Pending -> [ ("status", Json.String "pending") ]
  | Done_delivered { hops } ->
      [ ("status", Json.String "delivered"); ("hops", Json.Int hops) ]
  | Done_failed { hops; stuck_at; reason } ->
      [
        ("status", Json.String "failed");
        ("hops", Json.Int hops);
        ("stuck_at", Json.Int stuck_at);
        ("reason", Json.String reason);
      ]

let header_fields tr =
  [
    ("trace", Json.String (id_hex tr));
    ("seed", Json.Int tr.t_seed);
    ("route", Json.Int tr.t_index);
    ("src", Json.Int tr.src);
    ("dst", Json.Int tr.dst);
    ("full", Json.Bool tr.full);
    ("strategy", Json.String tr.strategy);
  ]

let to_json tr =
  Json.Obj
    (header_fields tr
    @ status_json tr
    @ [
        ("steps", Json.List (List.map (fun s -> Json.Obj (step_json tr s)) (steps tr)));
        ("dropped_steps", Json.Int tr.dropped_steps);
      ])

(* ------------------------------------------------------------------ *)
(* Chrome trace-event export                                           *)
(* ------------------------------------------------------------------ *)

(* The Trace Event Format consumed by chrome://tracing and Perfetto: one
   "X" (complete) slice per route on its own thread lane (tid = route
   index), instant events for hops, backtracks and reroutes. Timestamps
   are microseconds; sim time is treated as seconds, hop-count fallback
   time as microsecond ticks scaled the same way, which only affects the
   axis label. *)
let us t = Json.Float (t *. 1_000_000.0)

let chrome_events tr =
  let name =
    Printf.sprintf "route #%d %d->%d%s" tr.t_index tr.src tr.dst
      (match tr.status with
      | Pending -> ""
      | Done_delivered _ -> " (delivered)"
      | Done_failed _ -> " (failed)")
  in
  let dur = Float.max (tr.end_time -. tr.start_time) 1e-6 in
  let base =
    Json.Obj
      [
        ("name", Json.String name);
        ("cat", Json.String "route");
        ("ph", Json.String "X");
        ("ts", us tr.start_time);
        ("dur", us dur);
        ("pid", Json.Int 0);
        ("tid", Json.Int tr.t_index);
        ("args", Json.Obj (header_fields tr @ status_json tr));
      ]
  in
  let instant ~name ~time args =
    Json.Obj
      [
        ("name", Json.String name);
        ("cat", Json.String "route");
        ("ph", Json.String "i");
        ("s", Json.String "t");
        ("ts", us time);
        ("pid", Json.Int 0);
        ("tid", Json.Int tr.t_index);
        ("args", Json.Obj args);
      ]
  in
  let last_time = ref tr.start_time in
  let events =
    List.filter_map
      (fun s ->
        match s with
        | Hop { hop; node; time } ->
            last_time := time;
            Some
              (instant
                 ~name:(Printf.sprintf "hop %d -> %d" hop node)
                 ~time
                 [ ("hop", Json.Int hop); ("node", Json.Int node) ])
        | Backtrack { hop; from_node; to_node } ->
            Some
              (instant
                 ~name:(Printf.sprintf "backtrack %d -> %d" from_node to_node)
                 ~time:!last_time
                 [ ("hop", Json.Int hop) ])
        | Reroute { hop; from_node; target } ->
            Some
              (instant
                 ~name:(Printf.sprintf "reroute %d -> %d" from_node target)
                 ~time:!last_time
                 [ ("hop", Json.Int hop) ])
        | Candidate _ -> None)
      (steps tr)
  in
  base :: events

let chrome_trace ?traces () =
  let traces = match traces with Some l -> l | None -> retained_traces () in
  Json.Obj
    [
      ("traceEvents", Json.List (List.concat_map chrome_events traces));
      ("displayTimeUnit", Json.String "ms");
    ]

let chrome_trace_string ?traces () = Json.to_string (chrome_trace ?traces ())
