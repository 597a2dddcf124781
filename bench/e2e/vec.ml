(* ftr-lint: disable-file R1 T2 -- benchmark support code; wall-clock timing is the measurement *)

(* Growable int vectors: span records, per-call durations and generated
   inputs are appended at measurement rates, so pushes must not allocate
   on the minor heap except when the backing array doubles. *)

type t = { mutable data : int array; mutable len : int }

let create ?(capacity = 64) () = { data = Array.make (max 1 capacity) 0; len = 0 }

let length t = t.len

let push t x =
  if t.len = Array.length t.data then begin
    let bigger = Array.make (2 * t.len) 0 in
    Array.blit t.data 0 bigger 0 t.len;
    t.data <- bigger
  end;
  Array.unsafe_set t.data t.len x;
  t.len <- t.len + 1

let get t i =
  if i < 0 || i >= t.len then invalid_arg "Vec.get: index out of range";
  Array.unsafe_get t.data i

let set t i x =
  if i < 0 || i >= t.len then invalid_arg "Vec.set: index out of range";
  Array.unsafe_set t.data i x

(* Swap-remove: O(1) deletion when order does not matter (the victim
   pools of the churn generator). *)
let swap_remove t i =
  let x = get t i in
  t.data.(i) <- t.data.(t.len - 1);
  t.len <- t.len - 1;
  x
