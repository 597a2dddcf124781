(* ftr-lint: hot -- probed once per routing candidate under backtracking *)

(* Open addressing with linear probing over one interleaved [int array]:
   cell [i] is the pair [cells.(2i)] (the key) and [cells.(2i + 1)] (the
   generation that wrote it). A cell whose generation is not [gen] is
   empty, so [clear] empties the whole table by bumping [gen]. [gen]
   starts at 1 and only grows, and a fresh array is all 0, so a new
   cell never reads as full. The load stays at most one half, so every
   probe sequence reaches an empty cell. *)
type t = {
  mutable cells : int array;
  mutable mask : int; (* cell count - 1; the cell count is a power of two *)
  mutable shift : int; (* 63 - log2 (cell count): the hash keeps the top bits *)
  mutable gen : int;
  mutable count : int; (* keys added since the last [clear] *)
}

(* 64 cells (1 KiB) hold 32 keys, more than a paper-scale backtracking
   route tries; a longer route doubles the table as it goes. *)
let initial_log2 = 6

let create () =
  let cells = 1 lsl initial_log2 in
  {
    cells = Array.make (2 * cells) 0;
    mask = cells - 1;
    shift = 63 - initial_log2;
    gen = 1;
    count = 0;
  }

let clear t =
  t.gen <- t.gen + 1;
  t.count <- 0


(* Fibonacci hashing: the top bits of the key times an odd constant (the
   64-bit golden-ratio multiplier, cut to fit an int). The slots of one
   CSR row are consecutive integers; the multiply spreads them, and keys
   that differ by a multiple of the cell count alike. *)
let[@inline] home t key = (key * 0x1E3779B97F4A7C15) lsr t.shift

(* The cell holding [key], or the empty cell where its probe sequence
   ends. *)
let[@inline] find t key =
  let cells = t.cells and gen = t.gen and mask = t.mask in
  let i = ref (home t key) in
  while
    Array.unsafe_get cells ((2 * !i) + 1) = gen && Array.unsafe_get cells (2 * !i) <> key
  do
    i := (!i + 1) land mask
  done;
  !i

let[@inline] mem t key = Array.unsafe_get t.cells ((2 * find t key) + 1) = t.gen

(* Double the cell count and re-insert the current generation's keys. *)
let grow t =
  let old = t.cells and gen = t.gen in
  let cells = 2 * (t.mask + 1) in
  t.cells <- Array.make (2 * cells) 0;
  t.mask <- cells - 1;
  t.shift <- t.shift - 1;
  for c = 0 to (Array.length old / 2) - 1 do
    if Array.unsafe_get old ((2 * c) + 1) = gen then begin
      let key = Array.unsafe_get old (2 * c) in
      let i = find t key in
      Array.unsafe_set t.cells (2 * i) key;
      Array.unsafe_set t.cells ((2 * i) + 1) gen
    end
  done

let add t key =
  let i = find t key in
  if Array.unsafe_get t.cells ((2 * i) + 1) <> t.gen then begin
    Array.unsafe_set t.cells (2 * i) key;
    Array.unsafe_set t.cells ((2 * i) + 1) t.gen;
    t.count <- t.count + 1;
    if 2 * t.count > t.mask + 1 then grow t
  end
