(* T1 and writes: [weights] is read inside pool jobs but nothing writes
   it, so reading it races with nothing and T1 stays quiet. [limits] has
   the same shape, but module initialisation passes it to [inspect],
   which T1 does not know as a read-only accessor: it counts as written,
   and its read in a pool job fires. *)

let weights = [| 1; 2; 4 |]

let weigh i = weights.(i mod Array.length weights)

let run_weights n = Ftr_exec.Pool.map ~count:n weigh

let limits = [| 1; 2; 4 |]

let inspect (a : int array) = ignore a

let () = inspect limits

let limit i = limits.(i mod Array.length limits)

let run_limits n = Ftr_exec.Pool.map ~count:n limit
