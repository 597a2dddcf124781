(* ftr-lint: disable-file R1 T2 -- part of the benchmark harness, whose wall-clock reads are the measurement *)

(* Input generators. Every input is a pure function of the seed and is
   built in full before timing starts; the program under test only
   receives it.

   The churn schedule picks every node in O(1). It never asks the system
   under test for its live set ([Driver.control] and [Churn.install] do,
   through [live_positions], which rebuilds the list on every pick and
   dominates their runtime at thousands of nodes). Instead it splits the
   initial nodes into two fixed halves:
   - the stable half issues every lookup, bootstraps every join and takes
     every stabilize pulse, and is never crashed or removed, so each of
     those calls is legal when it runs;
   - crash and leave victims come from the other half plus the nodes
     joined so far, a pool kept with O(1) swap-removal;
   - joins take never-registered points, so a position is one node, ever. *)

module Rng = Ftr_prng.Rng
module Sample = Ftr_prng.Sample
module Seed = Ftr_exec.Seed

(* [count] (src, dst) pairs of node indices, both drawn uniformly from the
   nodes [alive] accepts. *)
let pairs rng ~n ~count ~alive =
  let rec pick () =
    let v = Rng.int rng n in
    if alive v then v else pick ()
  in
  Array.init count (fun _ ->
      let src = pick () in
      (src, pick ()))

type tick = {
  crashes : int array;
  leaves : int array;
  joins : (int * int) array; (* (new position, bootstrap node) *)
  stabilize : int array;
  sources : int array;
  targets : int array;
}

type schedule = { initial : int array; stable : int array; ticks : tick array; lookups : int }

type churn = { crash : float; leave : float; join : float; stabilize : int }

let no_churn = { crash = 0.0; leave = 0.0; join = 0.0; stabilize = 0 }

(* The initial population sits where [Ftr_svc.Driver.build_overlay] puts
   it: node i at position i * line_size / initial. *)
let schedule ~seed ~line_size ~initial ~ticks ~rate churn =
  if initial < 4 || initial > line_size then invalid_arg "Gen.schedule: bad initial size";
  let rng = Seed.rng_for ~seed ~index:2 in
  let positions = Array.init initial (fun i -> i * line_size / initial) in
  let order = Array.copy positions in
  Rng.shuffle_in_place rng order;
  let half = initial / 2 in
  let stable = Array.sub order 0 half in
  let victims = Vec.create ~capacity:initial () in
  Array.iter (Vec.push victims) (Array.sub order half (initial - half));
  let used = Bytes.make line_size '\000' in
  Array.iter (fun p -> Bytes.set used p '\001') positions;
  let draw lambda = if lambda > 0.0 then Sample.poisson rng ~lambda else 0 in
  let take_victims k =
    let k = min k (Vec.length victims) in
    Array.init k (fun _ -> Vec.swap_remove victims (Rng.int rng (Vec.length victims)))
  in
  let fresh_point () =
    let rec go () =
      let p = Rng.int rng line_size in
      if Bytes.get used p = '\000' then begin
        Bytes.set used p '\001';
        p
      end
      else go ()
    in
    go ()
  in
  let ticks =
    Array.init ticks (fun _ ->
        let crashes = take_victims (draw churn.crash) in
        let leaves = take_victims (draw churn.leave) in
        let joins = Array.init (draw churn.join) (fun _ -> (fresh_point (), Rng.pick rng stable)) in
        Array.iter (fun (p, _) -> Vec.push victims p) joins;
        let stabilize = Array.init churn.stabilize (fun _ -> Rng.pick rng stable) in
        let sources = Array.init rate (fun _ -> Rng.pick rng stable) in
        let targets = Array.init rate (fun _ -> Rng.int rng line_size) in
        { crashes; leaves; joins; stabilize; sources; targets })
  in
  { initial = positions; stable; ticks; lookups = Array.length ticks * rate }
