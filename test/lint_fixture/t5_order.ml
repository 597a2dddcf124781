(* T5 fixtures. [emit_counts] and [to_json] walk a Hashtbl inside an
   output-shaped binding and render in hash order (two positives);
   [total] iterates outside any output path, [emit_sorted] sorts the
   entries before rendering them, and [Export.size] sits under an
   output-shaped module path but not an output-shaped binding (three
   negatives). *)

let emit_counts (counts : (string, int) Hashtbl.t) =
  let b = Buffer.create 64 in
  Hashtbl.iter (fun k v -> Buffer.add_string b (k ^ "=" ^ string_of_int v ^ "\n")) counts;
  Buffer.contents b

let to_json (counts : (string, int) Hashtbl.t) = Hashtbl.fold (fun k _ acc -> k :: acc) counts []

let total (counts : (string, int) Hashtbl.t) = Hashtbl.fold (fun _ v acc -> acc + v) counts 0

let emit_sorted (counts : (string, int) Hashtbl.t) =
  List.sort String.compare (Hashtbl.fold (fun k _ acc -> k :: acc) counts [])

module Export = struct
  let size (counts : (string, int) Hashtbl.t) = Hashtbl.fold (fun _ _ n -> n + 1) counts 0
end
