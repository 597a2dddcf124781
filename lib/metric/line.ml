type t = { size : int }

let create size =
  if size < 1 then invalid_arg "Line.create: size must be >= 1";
  { size }

let contains t p = p >= 0 && p < t.size

let check t p = if not (contains t p) then invalid_arg "Line: point out of range"

let distance t a b =
  check t a;
  check t b;
  abs (a - b)

let directed t ~src ~dst =
  check t src;
  check t dst;
  dst - src

let clamp t p = if p < 0 then 0 else if p >= t.size then t.size - 1 else p

let midpoint t a b =
  check t a;
  check t b;
  (a + b) / 2
