(* R3 fixture: a Hashtbl walk inside an output-shaped ([emit_*]) binding
   renders in hash order. R3 is syntactic and no flow rule covers it, so
   it must still fire when the flow stage runs over this unit. *)

let emit_counts (counts : (string, int) Hashtbl.t) =
  let b = Buffer.create 64 in
  Hashtbl.iter (fun k v -> Buffer.add_string b (k ^ "=" ^ string_of_int v ^ "\n")) counts;
  Buffer.contents b
