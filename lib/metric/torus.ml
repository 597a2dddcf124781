type t = { dims : int; side : int; size : int }

let create ~dims ~side =
  if dims < 1 then invalid_arg "Torus.create: dims must be >= 1";
  if side < 1 then invalid_arg "Torus.create: side must be >= 1";
  let rec pow acc k = if k = 0 then acc else pow (acc * side) (k - 1) in
  { dims; side; size = pow 1 dims }

let dims t = t.dims

let side t = t.side

let size t = t.size

let contains t p = p >= 0 && p < t.size

let check t p = if not (contains t p) then invalid_arg "Torus: point out of range"

let coords t p =
  check t p;
  let c = Array.make t.dims 0 in
  let rec fill i v =
    if i < t.dims then begin
      c.(i) <- v mod t.side;
      fill (i + 1) (v / t.side)
    end
  in
  fill 0 p;
  c

let index t c =
  if Array.length c <> t.dims then invalid_arg "Torus.index: wrong dimensionality";
  let acc = ref 0 in
  for i = t.dims - 1 downto 0 do
    let v = c.(i) in
    if v < 0 || v >= t.side then invalid_arg "Torus.index: coordinate out of range";
    acc := (!acc * t.side) + v
  done;
  !acc

let axis_distance t a b =
  let d = abs (a - b) in
  if d <= t.side - d then d else t.side - d

(* L1 (Manhattan) distance with per-axis wraparound: the lattice distance of
   Kleinberg's grid, made toroidal so every node is symmetric. Peels one
   coordinate of each index per axis, as [coords] does, without building
   the arrays: routers call this once per candidate link. *)
let distance t a b =
  check t a;
  check t b;
  let a = ref a and b = ref b and acc = ref 0 in
  for _ = 1 to t.dims do
    acc := !acc + axis_distance t (!a mod t.side) (!b mod t.side);
    a := !a / t.side;
    b := !b / t.side
  done;
  !acc

let neighbors t p =
  let ca = coords t p in
  let result = ref [] in
  for i = 0 to t.dims - 1 do
    let plus = Array.copy ca and minus = Array.copy ca in
    plus.(i) <- (ca.(i) + 1) mod t.side;
    minus.(i) <- (ca.(i) - 1 + t.side) mod t.side;
    result := index t plus :: !result;
    if t.side > 2 then result := index t minus :: !result
  done;
  List.sort_uniq Int.compare !result

let move t p ~axis ~delta =
  if axis < 0 || axis >= t.dims then invalid_arg "Torus.move: bad axis";
  let c = coords t p in
  c.(axis) <- ((c.(axis) + delta) mod t.side + t.side) mod t.side;
  index t c
