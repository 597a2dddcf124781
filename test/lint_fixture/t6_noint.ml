(* T6 fixtures for a unit without an .mli, where every toplevel value is
   an export: [dead] is named by nothing and [spin] only by itself (two
   findings); [live] is named by the initialisation code below, which
   also names T6_export.used and, through an include, T6_base.included. *)

let dead x = x + 1

let rec spin n = if n > 0 then spin (n - 1)

let live x = T6_export.used x + T6_via.included x

let () = ignore (live 0)
