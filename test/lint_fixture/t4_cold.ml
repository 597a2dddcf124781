(* T4-negative: the list code of t4_hot.ml in a module without the hot
   tag, so the typed stage stays quiet. *)

let member (x : int) xs = List.mem x xs

let join (xs : int list) ys = xs @ ys
