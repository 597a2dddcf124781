(* Tapestry-style prefix routing (Plaxton/Rajaraman/Richa, Section 3 of
   the paper): identifiers are strings of [digits] base-[base] digits;
   each hop "fixes" the highest-order digit on which the current node and
   the target disagree, so delivery takes at most [digits] hops with
   (base-1)·digits routing-table entries per node.

   This model is the full-namespace instance (every identifier occupied),
   the cleanest comparison point against Theorem 14's digit-fixing on the
   line — the two are the same idea in different metrics. *)

type t = {
  base : int;
  digits : int;
  size : int;
  weights : int array; (* weights.(pos) = base^(digits-1-pos), pos 0 most significant *)
}

let create ~base ~digits =
  if base < 2 then invalid_arg "Plaxton.create: base must be >= 2";
  if digits < 1 then invalid_arg "Plaxton.create: digits must be >= 1";
  let rec pow acc k = if k = 0 then acc else pow (acc * base) (k - 1) in
  let size = pow 1 digits in
  if size > 1 lsl 30 then invalid_arg "Plaxton.create: namespace too large";
  let weights = Array.init digits (fun pos -> pow 1 (digits - 1 - pos)) in
  { base; digits; size; weights }

let size t = t.size

let digit t id ~position =
  if position < 0 || position >= t.digits then invalid_arg "Plaxton.digit: bad position";
  (* position 0 is the most significant digit. *)
  id / t.weights.(position) mod t.base

let check t id = if id < 0 || id >= t.size then invalid_arg "Plaxton: identifier out of range"

(* Number of leading digits two identifiers share. *)
let shared_prefix t a b =
  check t a;
  check t b;
  let rec scan pos =
    if pos >= t.digits then t.digits
    else if digit t a ~position:pos = digit t b ~position:pos then scan (pos + 1)
    else pos
  in
  scan 0

(* One routing step: fix the first differing digit, preserving everything
   above it and copying the target's digit — the routing-table entry a real
   Tapestry node would hold for (prefix length, digit). *)
let next_hop t ~cur ~dst =
  check t cur;
  check t dst;
  if cur = dst then None
  else begin
    let pos = shared_prefix t cur dst in
    (* Replace cur's digit at [pos] with dst's. *)
    let weight = t.weights.(pos) in
    let cur_digit = digit t cur ~position:pos in
    let dst_digit = digit t dst ~position:pos in
    Some (cur + ((dst_digit - cur_digit) * weight))
  end

let route t ~src ~dst =
  let rec go cur hops path =
    match next_hop t ~cur ~dst with
    | None -> (hops, List.rev path)
    | Some v -> go v (hops + 1) (v :: path)
  in
  go src 0 [ src ]

let route_hops t ~src ~dst = fst (route t ~src ~dst)

(* The exact delivery time: the number of digit positions where src and
   dst disagree — at most [digits]. *)
let differing_digits t a b =
  check t a;
  check t b;
  let count = ref 0 in
  for pos = 0 to t.digits - 1 do
    if digit t a ~position:pos <> digit t b ~position:pos then incr count
  done;
  !count
