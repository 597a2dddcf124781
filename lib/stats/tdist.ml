(* Two-sided 95% critical values of Student's t distribution. Experiment
   means are averaged over as few as 3 networks; with samples that small,
   the normal 1.96 understates the interval by more than 2x. *)

(* t_{0.975, df} for df = 1..30 (standard tables). *)
let table =
  [|
    12.706; 4.303; 3.182; 2.776; 2.571; 2.447; 2.365; 2.306; 2.262; 2.228; 2.201; 2.179; 2.160;
    2.145; 2.131; 2.120; 2.110; 2.101; 2.093; 2.086; 2.080; 2.074; 2.069; 2.064; 2.060; 2.056;
    2.052; 2.048; 2.045; 2.042;
  |]

let critical95 ~df =
  if df < 1 then invalid_arg "Tdist.critical95: df must be >= 1";
  (* ftr-lint: disable T1 -- read-only: nothing writes the table after initialisation *)
  if df <= 30 then table.(df - 1)
  else if df <= 60 then 2.000
  else if df <= 120 then 1.980
  else 1.960
