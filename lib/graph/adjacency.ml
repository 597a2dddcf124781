(* Compact int32 vectors backing every CSR structure in the tree. A
   [Bigarray] of int32 halves the footprint of the previous [int array]
   representation (4 bytes per entry instead of a tagged 8-byte word),
   lives outside the OCaml heap (the GC never scans it), and — because
   [Unix.map_file] produces exactly this type — lets a serialized network
   snapshot be mapped straight into the working representation
   (Ftr_core.Snapshot). The accessors compose [Int32.to_int] directly with
   the Bigarray read so the boxed intermediate cancels in cmmgen, inside
   the accessor: reads are allocation-free even without flambda (pinned
   by the Gc budgets in test_csr.ml). The call itself goes away only in a
   caller compiled without -opaque, which is the default build
   (dune-workspace); under dune's dev profile each read from another
   module is an indirect call through this module's block. The "Rng.float"
   row of test_prng.ml's allocation budget is the canary for that. *)
module I32 = struct
  type t = (int32, Bigarray.int32_elt, Bigarray.c_layout) Bigarray.Array1.t

  let max_value = 0x3FFF_FFFF (* conservative: also fits a 32-bit OCaml int *)

  let create n : t = Bigarray.Array1.create Bigarray.int32 Bigarray.c_layout n

  let length (a : t) = Bigarray.Array1.dim a

  let[@inline always] unsafe_get (a : t) i = Int32.to_int (Bigarray.Array1.unsafe_get a i)

  let[@inline always] get (a : t) i = Int32.to_int (Bigarray.Array1.get a i)

  let set (a : t) i v =
    if v < 0 || v > max_value then
      invalid_arg (Printf.sprintf "I32.set: value %d outside the int32 range" v);
    Bigarray.Array1.set a i (Int32.of_int v)

  (* Unchecked write for producers that have already range-checked. *)
  let[@inline always] unsafe_set (a : t) i v =
    Bigarray.Array1.unsafe_set a i (Int32.of_int v)

  let of_int_array xs =
    let a = create (Array.length xs) in
    Array.iteri (fun i v -> set a i v) xs;
    a

  let sub (a : t) off len : t = Bigarray.Array1.sub a off len

  let blit (src : t) (dst : t) = Bigarray.Array1.blit src dst

  let equal (a : t) (b : t) =
    length a = length b
    &&
    let ok = ref true in
    for i = 0 to length a - 1 do
      if not (Int32.equal (Bigarray.Array1.unsafe_get a i) (Bigarray.Array1.unsafe_get b i))
      then ok := false
    done;
    !ok
end

(* Compressed sparse row: the whole edge set in two flat int32 vectors.
   Row [u] is [targets.(offsets.(u)) .. targets.(offsets.(u+1) - 1)]. The
   flat layout is the memory representation the routing hot loop scans —
   one contiguous block instead of [n] separately boxed rows — and since
   the int32/Bigarray refactor it is also byte-identical to the on-disk
   snapshot payload (docs/MEMORY_LAYOUT.md). *)
module Csr = struct
  type t = { offsets : I32.t; targets : I32.t }

  let size t = I32.length t.offsets - 1

  let degree t u = I32.get t.offsets (u + 1) - I32.get t.offsets u

  let edge_count t = I32.get t.offsets (size t)

  let nth t u k = I32.get t.targets (I32.get t.offsets u + k)

  let iter_row t u f =
    for k = I32.get t.offsets u to I32.get t.offsets (u + 1) - 1 do
      f (I32.unsafe_get t.targets k)
    done

  (* The structural invariants every producer must establish; the Check
     battery re-verifies them with stable violation codes. *)
  let validate ?(sorted = false) t =
    let n = size t in
    if n < 0 then invalid_arg "Csr: offsets must have at least one entry";
    if I32.get t.offsets 0 <> 0 then invalid_arg "Csr: offsets must start at 0";
    for u = 0 to n - 1 do
      if I32.get t.offsets (u + 1) < I32.get t.offsets u then
        invalid_arg (Printf.sprintf "Csr: offsets decrease at row %d" u)
    done;
    if I32.get t.offsets n <> I32.length t.targets then
      invalid_arg "Csr: final offset must equal the target count";
    for k = 0 to I32.length t.targets - 1 do
      let v = I32.get t.targets k in
      if v < 0 || v >= n then
        invalid_arg (Printf.sprintf "Csr: target %d at slot %d out of range" v k)
    done;
    if sorted then
      for u = 0 to n - 1 do
        for k = I32.get t.offsets u + 1 to I32.get t.offsets (u + 1) - 1 do
          if I32.get t.targets (k - 1) > I32.get t.targets k then
            invalid_arg
              (Printf.sprintf "Csr: row %d unsorted at entry %d" u (k - I32.get t.offsets u))
        done
      done

  let check_node_count n =
    if n < 0 || n >= I32.max_value then
      invalid_arg (Printf.sprintf "Csr: node count %d outside the int32-indexable range" n)

  (* Both vectors at their exact size, filled row by row: no growth and
     no slack. [Network.build_ideal], whose rows sit at offsets known in
     advance, writes its vectors itself. *)
  let of_rows rows =
    let n = Array.length rows in
    check_node_count n;
    let edges = Array.fold_left (fun acc r -> acc + Array.length r) 0 rows in
    if edges > I32.max_value then invalid_arg "Csr.of_rows: edge count exceeds the int32 range";
    let offsets = I32.create (n + 1) and targets = I32.create edges in
    I32.unsafe_set offsets 0 0;
    let e = ref 0 in
    Array.iteri
      (fun u row ->
        Array.iter
          (fun v ->
            if v < 0 || v >= n then
              invalid_arg (Printf.sprintf "Csr.of_rows: target %d out of range" v);
            I32.unsafe_set targets !e v;
            incr e)
          row;
        I32.unsafe_set offsets (u + 1) !e)
      rows;
    { offsets; targets }

  (* Transpose: row [v] lists every [u] with an edge [u -> v], ascending
     (with multiplicity). *)
  let reverse t =
    let ins = Array.make (size t) [] in
    for u = size t - 1 downto 0 do
      iter_row t u (fun v -> ins.(v) <- u :: ins.(v))
    done;
    of_rows (Array.map Array.of_list ins)

  let equal a b = I32.equal a.offsets b.offsets && I32.equal a.targets b.targets
end
