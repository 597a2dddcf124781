(* Structured event sink: one JSON object per line (JSONL), covering
   per-hop route events, engine dispatch, overlay membership changes and
   anything else a layer wants to narrate. Disabled unless both the
   [Flag] is on and a sink is installed, so an un-instrumented run writes
   nothing and pays one bool load per potential event.

   Sampling is deterministic, per event kind: [set_sampling ~every:k]
   keeps the 1st, (k+1)-th, (2k+1)-th... occurrence of each kind, which
   makes runs reproducible (no RNG involved) while still thinning the
   per-hop firehose. *)

type sink = To_buffer of Buffer.t | To_channel of out_channel

(* Destination resolution, in precedence order: a programmatic [set_sink]
   (including [set_sink None] — "explicitly nowhere") always wins; absent
   one, FTR_OBS_SINK=<path> names a file the JSONL stream (route events,
   trace replays, everything) is appended to. The env sink is opened
   lazily on the first emission that needs it, so a run that never emits —
   FTR_OBS off, or telemetry on but eventless — never creates the file.
   FTR_OBS remains the master gate either way: with the flag off no sink,
   env or programmatic, sees a single byte. *)
let explicit : sink option ref = ref None

let explicit_set = ref false

let env_sink =
  lazy
    (match Sys.getenv_opt "FTR_OBS_SINK" with
    | Some path when String.length path > 0 ->
        let oc = open_out path in
        at_exit (fun () -> try flush oc with Sys_error _ -> ());
        Some (To_channel oc)
    | Some _ | None -> None)

let current_sink () = if !explicit_set then !explicit else Lazy.force env_sink

(* ftr-lint: disable T6 -- seam: tests capture the event stream through it *)
let set_sink s =
  explicit := s;
  explicit_set := true

(* Push buffered bytes through a channel sink (the env-redirect file is
   otherwise only flushed at exit); a no-op for buffers and no-sink. *)
let flush_sink () =
  match current_sink () with
  | Some (To_channel oc) -> flush oc
  | Some (To_buffer _) | None -> ()

(* One process-wide exit hook that flushes whatever sink is current at
   exit time. The env sink's own lazy [at_exit] only covers the channel
   it opened; a programmatic [set_sink (To_channel ...)] installed later
   had no such cover, so a CLI that exits early (usage error, selfcheck
   failure) could lose its tail. Idempotent: one hook however often the
   entry point calls it. *)
let exit_flush_installed = ref false

let install_exit_flush () =
  if not !exit_flush_installed then begin
    exit_flush_installed := true;
    at_exit flush_sink
  end

let every = ref 1

(* ftr-lint: disable T6 -- seam: tests make event sampling deterministic through it *)
let set_sampling ~every:k =
  if k < 1 then invalid_arg "Events.set_sampling: every must be >= 1";
  every := k

let seen : (string, int ref) Hashtbl.t = Hashtbl.create 16

let emitted_count = ref 0

let suppressed_count = ref 0

let emitted () = !emitted_count

let suppressed () = !suppressed_count

(* Clear counters and sampling state; the sink installation survives. *)
let reset () =
  Hashtbl.reset seen;
  emitted_count := 0;
  suppressed_count := 0

let emit ?time ~kind fields =
  if Flag.enabled () then
    match current_sink () with
    | None -> ()
    | Some s ->
        let c =
          match Hashtbl.find_opt seen kind with
          | Some c -> c
          | None ->
              let c = ref 0 in
              Hashtbl.replace seen kind c;
              c
        in
        incr c;
        if (!c - 1) mod !every = 0 then begin
          let base =
            ("kind", Json.String kind)
            :: (match time with Some t -> [ ("time", Json.Float t) ] | None -> [])
          in
          let line = Json.to_string (Json.Obj (base @ fields)) in
          (match s with
          | To_buffer b ->
              Buffer.add_string b line;
              Buffer.add_char b '\n'
          | To_channel oc ->
              output_string oc line;
              output_char oc '\n');
          incr emitted_count
        end
        else incr suppressed_count

(* Run [f] with events captured into a fresh buffer, restoring the
   previous sink; returns [f]'s result and the captured JSONL. *)
let with_buffer f =
  let buf = Buffer.create 1024 in
  let saved = !explicit and saved_set = !explicit_set in
  explicit := Some (To_buffer buf);
  explicit_set := true;
  let finally () =
    explicit := saved;
    explicit_set := saved_set
  in
  let v = Fun.protect ~finally f in
  (v, Buffer.contents buf)
