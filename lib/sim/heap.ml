(* ftr-lint: hot -- event-loop heap, every sim event passes through here *)

(* Binary min-heap keyed by a caller-supplied comparison. Array-backed with
   amortised growth; the hot path of the event loop. *)

type 'a t = {
  compare : 'a -> 'a -> int;
  mutable data : 'a array;
  mutable length : int;
}

let create ~compare = { compare; data = [||]; length = 0 }

let length t = t.length

let is_empty t = t.length = 0

let grow t item =
  let capacity = Array.length t.data in
  if t.length = capacity then begin
    let next = max 16 (2 * capacity) in
    let data = Array.make next item in
    Array.blit t.data 0 data 0 t.length;
    t.data <- data
  end

let rec sift_up t i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if t.compare t.data.(i) t.data.(parent) < 0 then begin
      let tmp = t.data.(i) in
      t.data.(i) <- t.data.(parent);
      t.data.(parent) <- tmp;
      sift_up t parent
    end
  end

let rec sift_down t i =
  let left = (2 * i) + 1 in
  if left < t.length then begin
    let right = left + 1 in
    let smallest = if right < t.length && t.compare t.data.(right) t.data.(left) < 0 then right else left in
    if t.compare t.data.(smallest) t.data.(i) < 0 then begin
      let tmp = t.data.(i) in
      t.data.(i) <- t.data.(smallest);
      t.data.(smallest) <- tmp;
      sift_down t smallest
    end
  end

let slot t i =
  if i < 0 || i >= t.length then invalid_arg "Heap.slot: index out of range";
  t.data.(i)

let compare_items t = t.compare

(* Sanitizer hook: full heap-property sweep, run after every mutation when
   FTR_CHECK is on. O(n), but only ever paid in debug mode. *)
let debug_validate t =
  for i = 1 to t.length - 1 do
    let parent = (i - 1) / 2 in
    if t.compare t.data.(parent) t.data.(i) > 0 then
      (* Sanitizer-only sweep (FTR_CHECK): the format literal allocation
         never runs on the hot path. ftr-lint: disable T4 *)
      Ftr_debug.Debug.failf "Heap: order violated between slot %d and its parent %d" i parent
  done

let push t item =
  grow t item;
  t.data.(t.length) <- item;
  t.length <- t.length + 1;
  sift_up t (t.length - 1);
  if Ftr_debug.Debug.enabled () then debug_validate t

let peek t = if t.length = 0 then None else Some t.data.(0)

let pop t =
  if t.length = 0 then None
  else begin
    let top = t.data.(0) in
    t.length <- t.length - 1;
    if t.length > 0 then begin
      t.data.(0) <- t.data.(t.length);
      sift_down t 0
    end;
    if Ftr_debug.Debug.enabled () then debug_validate t;
    Some top
  end

let clear t = t.length <- 0

let to_sorted_list t =
  if t.length = 0 then []
  else begin
    let copy = { compare = t.compare; data = Array.sub t.data 0 t.length; length = t.length } in
    let rec drain acc =
      match pop copy with None -> List.rev acc | Some x -> drain (x :: acc)
    in
    drain []
  end
