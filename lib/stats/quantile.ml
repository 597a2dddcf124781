let of_sorted sorted q =
  let n = Array.length sorted in
  if n = 0 then invalid_arg "Quantile.of_sorted: empty array";
  if q < 0.0 || q > 1.0 then invalid_arg "Quantile.of_sorted: q must be in [0,1]";
  if n = 1 then sorted.(0)
  else begin
    (* Linear interpolation between order statistics (type-7 estimator). *)
    let pos = q *. float_of_int (n - 1) in
    let lo = int_of_float (floor pos) in
    let hi = min (lo + 1) (n - 1) in
    let frac = pos -. float_of_int lo in
    sorted.(lo) +. (frac *. (sorted.(hi) -. sorted.(lo)))
  end

let compute xs q =
  let sorted = Array.copy xs in
  Array.sort Float.compare sorted;
  of_sorted sorted q
