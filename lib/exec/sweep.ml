module Rng = Ftr_prng.Rng

type ('p, 'r) t = { grid : 'p array; job : index:int -> rng:Rng.t -> 'p -> 'r }

let create ~run params = { grid = Array.of_list params; job = run }

let size t = Array.length t.grid

let grid3 xs ys zs =
  List.concat_map (fun x -> List.concat_map (fun y -> List.map (fun z -> (x, y, z)) zs) ys) xs

let grid4 xs ys zs ws =
  List.concat_map
    (fun x ->
      List.concat_map
        (fun y -> List.concat_map (fun z -> List.map (fun w -> (x, y, z, w)) ws) zs)
        ys)
    xs

let run ?jobs ~seed t =
  Pool.map_seeded ?jobs ~seed ~count:(size t) (fun ~index ~rng ->
      t.job ~index ~rng t.grid.(index))

let run_checkpointed ?jobs ?(wave = 32) ?fresh ~path ~seed ~encode ~decode t =
  let wave = max 1 wave in
  let count = size t in
  let journal = Checkpoint.open_ ?fresh ~path ~seed ~count () in
  Fun.protect ~finally:(fun () -> Checkpoint.close journal) @@ fun () ->
  let results = Array.make count None in
  List.iter
    (fun (index, j) ->
      match decode j with Some r -> results.(index) <- Some r | None -> ())
    (Checkpoint.completed journal);
  let pending =
    Array.of_list (List.filter (fun i -> Option.is_none results.(i)) (List.init count Fun.id))
  in
  (* Waves bound how much work a kill can lose; within a wave the pool
     already merges in index order, so journal records stay sorted. *)
  let n_pending = Array.length pending in
  let offset = ref 0 in
  while !offset < n_pending do
    let batch = Array.sub pending !offset (min wave (n_pending - !offset)) in
    let fresh_results =
      Pool.map ?jobs ~count:(Array.length batch) (fun k ->
          let index = batch.(k) in
          t.job ~index ~rng:(Seed.rng_for ~seed ~index) t.grid.(index))
    in
    Array.iteri
      (fun k r ->
        let index = batch.(k) in
        Checkpoint.append journal ~index (encode r);
        results.(index) <- Some r)
      fresh_results;
    offset := !offset + Array.length batch
  done;
  Array.map (function Some r -> r | None -> assert false) results
