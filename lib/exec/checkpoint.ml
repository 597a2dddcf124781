module Json = Ftr_obs.Json

exception Bad_journal of string

type t = {
  count : int;
  mutable oc : out_channel option;
  completed : (int * Json.t) list; (* increasing index order *)
}

let header ~seed ~count =
  Json.Obj [ ("kind", Json.String "sweep"); ("seed", Json.Int seed); ("jobs_total", Json.Int count) ]

(* Parse an existing journal. Unparseable lines are skipped (a kill mid-
   append truncates exactly one trailing line); so are out-of-range and
   duplicate indices (first record wins — it was flushed first). *)
let read_existing ~path ~seed ~count =
  if not (Sys.file_exists path) then None
  else begin
    let lines = In_channel.with_open_text path In_channel.input_lines in
    let lines = List.filter (fun l -> not (String.equal (String.trim l) "")) lines in
    match lines with
    | [] -> None
    | first :: rest ->
        (match Json.parse_opt first with
        | Some h
          when (match Json.member "kind" h with
               | Some (Json.String k) -> String.equal k "sweep"
               | Some _ | None -> false) ->
            let check field expected =
              match Json.member field h with
              | Some (Json.Int v) when v = expected -> ()
              | got ->
                  raise
                    (Bad_journal
                       (Printf.sprintf
                          "%s was journalled for %s=%s, this sweep has %s=%d (delete %s or \
                           fix the grid/seed flags)"
                          path field
                          (match got with Some (Json.Int v) -> string_of_int v | _ -> "?")
                          field expected path))
            in
            check "seed" seed;
            check "jobs_total" count
        | Some _ | None ->
            raise (Bad_journal (Printf.sprintf "%s does not start with a sweep header" path)));
        let seen = Hashtbl.create 64 in
        List.iter
          (fun line ->
            match Json.parse_opt line with
            | Some j -> (
                match (Json.member "job" j, Json.member "result" j) with
                | Some (Json.Int i), Some r
                  when i >= 0 && i < count && not (Hashtbl.mem seen i) ->
                    Hashtbl.replace seen i r
                | _ -> ())
            | None -> ())
          rest;
        let entries =
          Hashtbl.fold (fun i r acc -> (i, r) :: acc) seen []
          |> List.sort (fun (a, _) (b, _) -> Int.compare a b)
        in
        Some entries
  end

let write_line oc j =
  output_string oc (Json.to_string j);
  output_char oc '\n';
  flush oc

let open_ ?(fresh = false) ~path ~seed ~count () =
  let dir = Filename.dirname path in
  if not (String.equal dir "" || String.equal dir ".") then Ftr_stats.Csv.mkdir_p dir;
  let existing = if fresh then None else read_existing ~path ~seed ~count in
  match existing with
  | Some completed ->
      let oc = open_out_gen [ Open_append; Open_creat; Open_wronly ] 0o644 path in
      { count; oc = Some oc; completed }
  | None ->
      let oc = open_out_gen [ Open_trunc; Open_creat; Open_wronly ] 0o644 path in
      write_line oc (header ~seed ~count);
      { count; oc = Some oc; completed = [] }

let completed t = t.completed

let append t ~index result =
  if index < 0 || index >= t.count then
    invalid_arg (Printf.sprintf "Checkpoint.append: job %d outside [0,%d)" index t.count);
  match t.oc with
  | None -> invalid_arg "Checkpoint.append: journal is closed"
  | Some oc -> write_line oc (Json.Obj [ ("job", Json.Int index); ("result", result) ])

let close t =
  match t.oc with
  | None -> ()
  | Some oc ->
      close_out oc;
      t.oc <- None
