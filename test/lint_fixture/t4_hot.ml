(* ftr-lint: hot -- fixture: opts this module into T4 *)

(* T4 fixtures: a tuple allocated inside a [while] loop of a hot module,
   and a [List.mem] scan and an [@] outside any loop (three positives);
   an allocation-free accumulation loop and an array read (negatives).
   t4_cold.ml holds the same list code without the tag. *)

let sum_pairs n =
  let acc = ref 0 in
  let i = ref 0 in
  while !i < n do
    let pair = (!i, !i + 1) in
    acc := !acc + fst pair + snd pair;
    incr i
  done;
  !acc

let sum n =
  let acc = ref 0 in
  for i = 0 to n - 1 do
    acc := !acc + i
  done;
  !acc

let member (x : int) xs = List.mem x xs

let join (xs : int list) ys = xs @ ys

let first (a : int array) = Array.unsafe_get a 0
