(* Structured event sink: one JSON object per line (JSONL), covering
   route outcomes, overlay membership changes and anything else a layer
   wants to narrate. Disabled unless both the [Flag] is on and a sink is
   installed, so an un-instrumented run writes nothing and pays one bool
   load per potential event. Every event that reaches a sink is written;
   a route's hops are the flight recorder's steps, not events. *)

type sink = To_buffer of Buffer.t | To_channel of out_channel

(* Destination resolution, in precedence order: the innermost active
   [with_sink] bracket (including [with_sink None] — "explicitly
   nowhere") always wins; absent one, FTR_OBS_SINK=<path> names a file
   the JSONL stream (route events, trace replays, everything) is appended
   to. The env sink is opened lazily on the first emission that needs it,
   so a run that never emits — FTR_OBS off, or telemetry on but eventless
   — never creates the file. FTR_OBS remains the master gate either way:
   with the flag off no sink, env or bracketed, sees a single byte. *)
let bracketed : sink option option ref = ref None

let env_sink =
  lazy
    (match Sys.getenv_opt "FTR_OBS_SINK" with
    | Some path when String.length path > 0 ->
        let oc = open_out path in
        at_exit (fun () -> try flush oc with Sys_error _ -> ());
        Some (To_channel oc)
    | Some _ | None -> None)

let current_sink () = match !bracketed with Some s -> s | None -> Lazy.force env_sink

(* Push buffered bytes through a channel sink (the env-redirect file is
   otherwise only flushed at exit); a no-op for buffers and no-sink. *)
let flush_sink () =
  match current_sink () with
  | Some (To_channel oc) -> flush oc
  | Some (To_buffer _) | None -> ()

(* One process-wide exit hook that flushes whatever sink is current at
   exit time. The env sink's own lazy [at_exit] only covers the channel
   it opened, and [exit] inside a [with_sink] bracket skips the
   bracket's own flush, so a CLI that exits early (usage error,
   selfcheck failure) could lose its tail. Idempotent: one hook however
   often the entry point calls it. *)
let exit_flush_installed = ref false

let install_exit_flush () =
  if not !exit_flush_installed then begin
    exit_flush_installed := true;
    at_exit flush_sink
  end

let emitted_count = ref 0

let emitted () = !emitted_count

(* Clear the emitted counter; the sink installation survives. *)
let reset () = emitted_count := 0

let emit ?time ~kind fields =
  if Flag.enabled () then
    match current_sink () with
    | None -> ()
    | Some s ->
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

(* Run [f] with [s] as the sink, then restore the previous one and
   flush [s] if it is a channel, whether [f] returns or raises: the
   bracket is the only way to install a sink, so none is left installed
   or unflushed past its extent. *)
let with_sink s f =
  let saved = !bracketed in
  bracketed := Some s;
  let finally () =
    bracketed := saved;
    match s with Some (To_channel oc) -> flush oc | Some (To_buffer _) | None -> ()
  in
  Fun.protect ~finally f

(* [f]'s result and the JSONL it emitted, captured into a fresh buffer. *)
let with_buffer f =
  let buf = Buffer.create 1024 in
  let v = with_sink (Some (To_buffer buf)) f in
  (v, Buffer.contents buf)
