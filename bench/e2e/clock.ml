(* ftr-lint: disable-file R1 T2 -- the clock probe times itself; wall-clock timing is the measurement *)

(* The host-clock probe. On a shared host the core clock follows the
   other tenants' load: over minutes the same run reads up to 30% slower
   (README.md, "Noise on shared hosts"). A fixed chain of dependent
   integer operations takes a time inversely proportional to the clock,
   whatever the code under test does, so timing it beside every measured
   section tells how slow the clock was there. The benchmark divides each
   section's wall time by that slowdown: its timings read as if the clock
   ran at the reference host's full speed. *)

let iterations = 1_000_000

(* Time of one chain on the reference host (2-vCPU Intel Xeon VM) at its
   fastest observed clock. *)
let reference_ns = 1_500_000.0

let sink = ref 0

(* Best of three chains: an interrupt only ever adds time. *)
let probe_ns () =
  let best = ref max_int in
  for _ = 1 to 3 do
    let t0 = Spans.now_ns () in
    let x = ref !sink in
    for _ = 1 to iterations do
      x := ((!x * 1103515245) + 12345) land 0xFFFFFFF
    done;
    sink := !x;
    best := min !best (Spans.now_ns () - t0)
  done;
  !best

let slowdown () = float_of_int (probe_ns ()) /. reference_ns

type t = { mutable last : float; mutable seen : float list }

let create () =
  let s = slowdown () in
  { last = s; seen = [ s ] }

(* The slowdown over the section that ends now: the mean of the probe
   taken at its end and the one before it. Call it once after every
   timed section, outside the timing. *)
let section t =
  let now = slowdown () in
  let s = (t.last +. now) /. 2.0 in
  t.last <- now;
  t.seen <- now :: t.seen;
  s

let median_slowdown t = Stats.median t.seen
