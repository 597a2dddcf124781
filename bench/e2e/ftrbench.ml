(* ftr-lint: disable-file R1 T2 -- benchmark wall-clock timing is the measurement itself *)

(* ftrbench: the end-to-end lookup benchmark (README.md).

     ftrbench --workload W --seed N --seconds S --trace 0|1
       one workload in this process; prints "W metric value unit" lines,
       the outcome digest, and as the last line one JSON object
       {correct, attempted, failed, metrics}. --trace 1 reports the
       per-layer metrics instead of the end-to-end ones; --trace-out FILE
       also writes the spans as Chrome trace-event JSON.

     ftrbench --seed N [--runs K] [--out FILE]
       every workload, each run in its own child process, one at a time;
       prints the median and quartiles of each metric over the K runs and
       (with --out) appends every run's result to FILE as JSON lines.

     ftrbench --compare BASE.jsonl CAND.jsonl [--spec BENCHMARK.json]
       compares two sets written by --out against the bounds in the spec.

     ftrbench --smoke [--spec BENCHMARK.json]
       every workload at about 1/50 scale, untraced and traced, checking
       each reported metric against the spec (the @bench-smoke alias).

   Exit status 0 when every check passed, 1 otherwise. *)

open E2e
module J = Ftr_obs.Json

let seed = ref 2002
let seconds = ref 15.0
let trace = ref 0
let workload = ref ""
let runs = ref 1
let out_file = ref ""
let trace_out = ref ""
let spec_file = ref "BENCHMARK.json"
let small = ref false
let smoke = ref false
let compare_mode = ref false
let anon = ref []

let usage = "ftrbench [--workload W] [--seed N] [--seconds S] [--trace 0|1] [--runs K] ..."

let specs =
  [
    ("--workload", Arg.Set_string workload, "W  run one workload in this process");
    ("--seed", Arg.Set_int seed, "N  input seed (default 2002)");
    ("--seconds", Arg.Set_float seconds, "S  measured seconds per run (default 15, BENCHMARK.json's run_seconds)");
    ("--trace", Arg.Set_int trace, "0|1  report per-layer metrics from a traced run");
    ("--trace-out", Arg.Set_string trace_out, "FILE  write the spans as Chrome trace JSON");
    ("--runs", Arg.Set_int runs, "K  runs per workload without --workload (default 1)");
    ("--out", Arg.Set_string out_file, "FILE  append each run's result as a JSON line");
    ("--spec", Arg.Set_string spec_file, "FILE  the benchmark spec (default BENCHMARK.json)");
    ("--small", Arg.Set small, " about 1/50 of the full sizes");
    ("--smoke", Arg.Set smoke, " all workloads at --small scale, checked against the spec");
    ("--compare", Arg.Set compare_mode, " compare two --out files: BASE CAND");
  ]

let fail fmt = Printf.ksprintf (fun s -> prerr_endline ("ftrbench: " ^ s); exit 1) fmt

(* ------------------------------------------------------------------ *)
(* One workload                                                        *)
(* ------------------------------------------------------------------ *)

(* Every digit of a measured value: "%.17g" round-trips a double. *)
let number v = if Float.is_finite v then Printf.sprintf "%.17g" v else "null"

let result_line ~correct ~attempted ~failed metrics =
  let field (name, v, unit) =
    Printf.sprintf "%S:{\"value\":%s,\"unit\":%S}" name (number v) unit
  in
  Printf.sprintf "{\"correct\":%b,\"attempted\":%d,\"failed\":%d,\"metrics\":{%s}}" correct attempted
    failed
    (String.concat "," (List.map field metrics))

(* Self time per span, grouped by layer, over the whole traced run. *)
let print_self_table sp =
  let rows =
    List.map
      (fun n -> (Catalog.layer_of_span n, n, Spans.count sp n, Spans.total_s sp n, Spans.self_s sp n))
      (Spans.names sp)
    |> List.sort (fun (l, n, _, _, _) (l', n', _, _, _) ->
           match String.compare l l' with 0 -> String.compare n n' | c -> c)
  in
  let measure = Spans.total_s sp "measure" in
  Printf.printf "# self time (traced passes; share of measure = %.3f s)\n" measure;
  Printf.printf "# %-10s %-24s %10s %12s %12s %7s\n" "layer" "span" "calls" "total_s" "self_s" "share";
  List.iter
    (fun (l, n, c, tot, self) ->
      Printf.printf "# %-10s %-24s %10d %12.6f %12.6f %7.4f\n" l n c tot self
        (if measure > 0.0 then self /. measure else 0.0))
    rows

let run_one name =
  let work_dir = ".ftrbench" in
  if not (Sys.file_exists work_dir) then Sys.mkdir work_dir 0o755;
  let spans = Spans.create () in
  let o =
    {
      Workloads.seed = !seed;
      seconds = !seconds;
      trace = !trace <> 0;
      small = !small;
      work_dir;
      spans;
    }
  in
  let r =
    Fun.protect
      ~finally:(fun () -> try Sys.rmdir work_dir with Sys_error _ -> ())
      (fun () -> Workloads.run o name)
  in
  let catalog = if o.trace then Catalog.per_layer else Catalog.end_to_end in
  let problems = ref r.Workloads.problems in
  let metrics =
    List.map
      (fun (m : Catalog.metric) ->
        let v =
          match Hashtbl.find_opt r.Workloads.values m.name with
          | Some v -> v
          | None -> if o.trace then 0.0 (* the workload never calls this layer *) else nan
        in
        if not (Float.is_finite v) then
          problems := !problems @ [ Printf.sprintf "%s is not a finite number" m.name ];
        (m.name, v, m.unit))
      catalog
  in
  if o.trace then print_self_table spans
  else
    Printf.printf "%s host.clock_slowdown %s ratio\n" name
      (number (Hashtbl.find r.Workloads.values "host.clock_slowdown"));
  List.iter (fun (n, v, u) -> Printf.printf "%s %s %s %s\n" name n (number v) u) metrics;
  Printf.printf "digest %s %s\n" name r.Workloads.digest;
  List.iter (fun p -> Printf.eprintf "ftrbench: %s: %s\n" name p) !problems;
  if not (String.equal !trace_out "") then
    Out_channel.with_open_text !trace_out (fun oc ->
        output_string oc (J.to_string (Spans.chrome_json spans)));
  let correct = !problems = [] && r.Workloads.mismatched = 0 in
  print_endline
    (result_line ~correct ~attempted:r.Workloads.attempted ~failed:r.Workloads.mismatched metrics);
  if not correct then exit 1

(* ------------------------------------------------------------------ *)
(* Child runs                                                          *)
(* ------------------------------------------------------------------ *)

type child = {
  c_ok : bool;
  c_digest : string;
  c_json : J.t; (* the result object; Null if none was printed *)
}

let to_float = function J.Int i -> Some (float_of_int i) | J.Float f -> Some f | _ -> None

let to_string = function J.String s -> Some s | _ -> None

(* Run this executable on one workload and read its last line. *)
let run_child ~name ~trace ~seconds ~small =
  let args =
    [ Sys.executable_name; "--workload"; name; "--seed"; string_of_int !seed; "--seconds";
      Printf.sprintf "%g" seconds; "--trace"; (if trace then "1" else "0") ]
    @ if small then [ "--small" ] else []
  in
  let ic = Unix.open_process_args_in Sys.executable_name (Array.of_list args) in
  let lines = String.split_on_char '\n' (String.trim (In_channel.input_all ic)) in
  let status = Unix.close_process_in ic in
  let digest =
    List.fold_left
      (fun acc l ->
        match String.split_on_char ' ' l with [ "digest"; _; d ] -> d | _ -> acc)
      "" lines
  in
  let json =
    match List.rev lines with
    | last :: _ -> Option.value ~default:J.Null (J.parse_opt last)
    | [] -> J.Null
  in
  let exited_ok = match status with Unix.WEXITED 0 -> true | _ -> false in
  { c_ok = exited_ok; c_digest = digest; c_json = json }

let metric_of json name =
  match J.member "metrics" json with
  | Some ms -> (
      match J.member name ms with
      | Some m -> (Option.bind (J.member "value" m) to_float, Option.bind (J.member "unit" m) to_string)
      | None -> (None, None))
  | None -> (None, None)

let int_member json name =
  match J.member name json with Some (J.Int i) -> i | _ -> 0

(* ------------------------------------------------------------------ *)
(* The spec                                                            *)
(* ------------------------------------------------------------------ *)

type spec_metric = { s_name : string; s_unit : string; s_better : Stats.better; s_bound : float }

let read_spec () =
  let text =
    try In_channel.with_open_text !spec_file In_channel.input_all
    with Sys_error e -> fail "cannot read the spec: %s" e
  in
  let json = match J.parse_opt text with Some j -> j | None -> fail "%s is not JSON" !spec_file in
  let section key =
    match J.member key json with
    | Some (J.List items) ->
        List.map
          (fun item ->
            let str k = Option.bind (J.member k item) to_string in
            match (str "name", str "unit", str "better") with
            | Some s_name, Some s_unit, Some better ->
                {
                  s_name;
                  s_unit;
                  s_better = Stats.better_of_string better;
                  s_bound = Option.value ~default:nan (Option.bind (J.member "bound" item) to_float);
                }
            | _ -> fail "%s: malformed entry in %s" !spec_file key)
          items
    | _ -> fail "%s: no %s list" !spec_file key
  in
  (section "end_to_end", section "per_layer")

(* ------------------------------------------------------------------ *)
(* All workloads                                                       *)
(* ------------------------------------------------------------------ *)

let run_all () =
  let traced = !trace <> 0 in
  let catalog = if traced then Catalog.per_layer else Catalog.end_to_end in
  let ok = ref true and attempted = ref 0 and failed = ref 0 in
  let summary = ref [] in
  let out =
    if String.equal !out_file "" then None
    else Some (open_out_gen [ Open_append; Open_creat ] 0o644 !out_file)
  in
  List.iter
    (fun name ->
      let children =
        List.init !runs (fun r ->
            let c = run_child ~name ~trace:traced ~seconds:!seconds ~small:!small in
            if not c.c_ok then begin
              ok := false;
              Printf.eprintf "ftrbench: %s run %d failed\n%!" name (r + 1)
            end;
            attempted := !attempted + int_member c.c_json "attempted";
            failed := !failed + int_member c.c_json "failed";
            Option.iter
              (fun oc ->
                output_string oc
                  (J.to_string
                     (J.Obj
                        [
                          ("workload", J.String name);
                          ("seed", J.Int !seed);
                          ("run", J.Int r);
                          ("trace", J.Bool traced);
                          ("digest", J.String c.c_digest);
                          ("result", c.c_json);
                        ]));
                output_char oc '\n';
                flush oc)
              out;
            c)
      in
      (match children with
      | c :: rest when not (List.for_all (fun c' -> String.equal c'.c_digest c.c_digest) rest) ->
          ok := false;
          Printf.eprintf "ftrbench: %s: outcome digests differ between runs of one seed\n%!" name
      | _ -> ());
      List.iter
        (fun (m : Catalog.metric) ->
          let values = List.filter_map (fun c -> fst (metric_of c.c_json m.name)) children in
          let q1, _, q3 = Stats.quartiles values and med = Stats.median values in
          Printf.printf "%s %s %s %s  (q1 %s, q3 %s, n=%d)\n%!" name m.name (number med) m.unit
            (number q1) (number q3) (List.length values);
          summary := (name ^ "/" ^ m.name, med, m.unit) :: !summary)
        catalog)
    Catalog.workloads;
  Option.iter close_out out;
  print_endline
    (result_line ~correct:!ok ~attempted:!attempted ~failed:!failed (List.rev !summary));
  if not !ok then exit 1

(* ------------------------------------------------------------------ *)
(* Comparing two sets                                                  *)
(* ------------------------------------------------------------------ *)

let read_set path =
  let lines =
    try In_channel.with_open_text path In_channel.input_all |> String.split_on_char '\n'
    with Sys_error e -> fail "cannot read %s" e
  in
  List.filter_map
    (fun l -> if String.equal (String.trim l) "" then None else J.parse_opt l)
    lines

let values_of set ~workload ~metric =
  List.filter_map
    (fun row ->
      match (Option.bind (J.member "workload" row) to_string, J.member "result" row) with
      | Some w, Some res when String.equal w workload -> fst (metric_of res metric)
      | _ -> None)
    set

let run_compare base_path cand_path =
  let e2e, _ = read_spec () in
  let base = read_set base_path and cand = read_set cand_path in
  let regressions = ref 0 in
  Printf.printf "%-14s %-16s %14s %14s %9s %9s  %s\n" "workload" "metric" "base" "cand" "worse"
    "spread" "verdict";
  List.iter
    (fun workload ->
      List.iter
        (fun s ->
          let b = values_of base ~workload ~metric:s.s_name
          and c = values_of cand ~workload ~metric:s.s_name in
          match (b, c) with
          | [], _ | _, [] -> ()
          | _ ->
              let worse = Stats.worse_share ~better:s.s_better ~base:b ~cand:c in
              let spread = Stats.spread b in
              let verdict =
                if Stats.regresses ~better:s.s_better ~bound:s.s_bound ~base:b ~cand:c then begin
                  incr regressions;
                  "REGRESSION"
                end
                else if
                  List.length b = List.length c && Stats.wins ~better:s.s_better ~base:b ~cand:c
                then "gain"
                else if spread > s.s_bound then
                  if Stats.all_better ~better:s.s_better ~base:b ~cand:c then "better" else "unresolved"
                else "within bound"
              in
              Printf.printf "%-14s %-16s %14.6g %14.6g %+9.4f %9.4f  %s\n" workload s.s_name
                (Stats.median b) (Stats.median c) worse spread verdict)
        e2e)
    Catalog.workloads;
  if !regressions > 0 then exit 1

(* ------------------------------------------------------------------ *)
(* Smoke                                                               *)
(* ------------------------------------------------------------------ *)

let run_smoke () =
  let e2e, per_layer = read_spec () in
  let t0 = Unix.gettimeofday () in
  let problems = ref [] in
  let bad fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  (* The spec and the code must name the same metrics, with the same units. *)
  let same_catalog label (spec : spec_metric list) (cat : Catalog.metric list) =
    let key_s s = (s.s_name, s.s_unit) and key_c (c : Catalog.metric) = (c.name, c.unit) in
    let sort = List.sort (fun (a, b) (a', b') -> match String.compare a a' with 0 -> String.compare b b' | n -> n) in
    if not (List.equal (fun (a, b) (a', b') -> String.equal a a' && String.equal b b') (sort (List.map key_s spec)) (sort (List.map key_c cat)))
    then bad "%s: the spec's metrics differ from the benchmark's" label
  in
  same_catalog "end_to_end" e2e Catalog.end_to_end;
  same_catalog "per_layer" per_layer Catalog.per_layer;
  List.iter
    (fun name ->
      let check traced (spec : spec_metric list) =
        let c = run_child ~name ~trace:traced ~seconds:0.2 ~small:true in
        let mode = if traced then "traced" else "untraced" in
        if not c.c_ok then bad "%s (%s): the run failed" name mode;
        (match J.member "correct" c.c_json with
        | Some (J.Bool true) -> ()
        | _ -> bad "%s (%s): not correct" name mode);
        if int_member c.c_json "attempted" < 1 then bad "%s (%s): no lookups attempted" name mode;
        if int_member c.c_json "failed" <> 0 then bad "%s (%s): failed lookups" name mode;
        List.iter
          (fun s ->
            match metric_of c.c_json s.s_name with
            | Some v, Some u ->
                if not (String.equal u s.s_unit) then
                  bad "%s (%s): %s has unit %s, the spec says %s" name mode s.s_name u s.s_unit;
                if not (Float.is_finite v) then bad "%s (%s): %s is not finite" name mode s.s_name
            | _ -> bad "%s (%s): %s is missing" name mode s.s_name)
          spec;
        c.c_digest
      in
      let d0 = check false e2e and d1 = check true per_layer in
      if String.equal d0 "" || not (String.equal d0 d1) then
        bad "%s: traced and untraced runs disagree on the outcome digest (%s / %s)" name d0 d1;
      Printf.printf "smoke %s ok so far: digest %s\n%!" name d0)
    Catalog.workloads;
  Printf.printf "smoke: %d workloads in %.1f s\n" (List.length Catalog.workloads)
    (Unix.gettimeofday () -. t0);
  List.iter (fun p -> Printf.eprintf "ftrbench smoke: %s\n" p) (List.rev !problems);
  if !problems <> [] then exit 1

let () =
  Arg.parse specs (fun a -> anon := !anon @ [ a ]) usage;
  if !compare_mode then
    match !anon with
    | [ base; cand ] -> run_compare base cand
    | _ -> fail "--compare needs two files: BASE CAND"
  else if !smoke then run_smoke ()
  else if String.equal !workload "" then run_all ()
  else if List.exists (String.equal !workload) Catalog.workloads then run_one !workload
  else fail "unknown workload %S (one of: %s)" !workload (String.concat ", " Catalog.workloads)
