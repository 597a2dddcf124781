(* The FTR_* on/off environment switches, parsed in one place. A switch
   is unset, empty, or one of the words below; each library reads its
   own switch through [read], keeping its default for any other value,
   and the binaries refuse such a value at start-up through [invalid]. *)

let on_words = [ "1"; "true"; "on"; "yes" ]

let off_words = [ "0"; "false"; "off"; "no" ]

let parse v =
  if List.exists (String.equal v) on_words then Some true
  else if List.exists (String.equal v) off_words then Some false
  else None

(* [name]'s setting, or [default] when it is unset, empty or not a
   switch word. *)
let read name ~default =
  match Sys.getenv_opt name with
  | None | Some "" -> default
  | Some v -> Option.value (parse v) ~default

(* The switches every binary honours: telemetry, its flight recorder,
   the sequential fallback of the execution pool and the sanitizer. *)
let names = [ "FTR_OBS"; "FTR_OBS_TRACE"; "FTR_EXEC_SEQ"; "FTR_CHECK" ]

(* A refusal naming the first of [names] set to something other than a
   switch word, and the words it takes; [None] when all are well formed. *)
let invalid names =
  List.find_map
    (fun name ->
      match Sys.getenv_opt name with
      | Some v when (not (String.equal v "")) && Option.is_none (parse v) ->
          Some
            (Printf.sprintf "%s=%S is not a switch value; %s takes one of %s" name v name
               (String.concat ", " (on_words @ off_words)))
      | Some _ | None -> None)
    names
