type t = { size : int; words : Bytes.t }

let bits_per_word = 8

let create size =
  if size < 0 then invalid_arg "Bitset.create: negative size";
  { size; words = Bytes.make ((size + bits_per_word - 1) / bits_per_word) '\000' }

let check t i = if i < 0 || i >= t.size then invalid_arg "Bitset: index out of range"

let get t i =
  check t i;
  Char.code (Bytes.unsafe_get t.words (i / bits_per_word)) land (1 lsl (i mod bits_per_word)) <> 0

let unsafe_get t i =
  Char.code (Bytes.unsafe_get t.words (i / bits_per_word)) land (1 lsl (i mod bits_per_word)) <> 0

let set t i =
  check t i;
  let w = i / bits_per_word in
  Bytes.unsafe_set t.words w
    (Char.chr (Char.code (Bytes.unsafe_get t.words w) lor (1 lsl (i mod bits_per_word))))

let clear t i =
  check t i;
  let w = i / bits_per_word in
  Bytes.unsafe_set t.words w
    (Char.chr (Char.code (Bytes.unsafe_get t.words w) land lnot (1 lsl (i mod bits_per_word)) land 0xFF))

let fill t v =
  Bytes.fill t.words 0 (Bytes.length t.words) (if v then '\255' else '\000');
  (* Keep trailing padding bits clear so popcount stays exact. *)
  if v then
    for i = t.size to (Bytes.length t.words * bits_per_word) - 1 do
      let w = i / bits_per_word in
      Bytes.unsafe_set t.words w
        (Char.chr
           (Char.code (Bytes.unsafe_get t.words w) land lnot (1 lsl (i mod bits_per_word)) land 0xFF))
    done

let popcount_byte =
  let table = Array.make 256 0 in
  for i = 1 to 255 do
    table.(i) <- table.(i lsr 1) + (i land 1)
  done;
  fun c -> table.(Char.code c)

let count t =
  let acc = ref 0 in
  Bytes.iter (fun c -> acc := !acc + popcount_byte c) t.words;
  !acc
