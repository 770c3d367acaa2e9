let steps_c = Obs.counter "engine.steps"

let run_once rng ~burn_in query init =
  if Obs.enabled () then Obs.add steps_c burn_in;
  let rec go db k =
    if k = 0 then Lang.Event.holds query.Lang.Forever.event db
    else go (Lang.Forever.step_sampled rng query db) (k - 1)
  in
  go init burn_in

let run_samples ?guard ?fault ?ckpt ?(domains = 1) rng ~burn_in ~samples query init =
  if burn_in < 0 then invalid_arg "run_samples: burn_in must be non-negative";
  Pool.run_samples ?guard ?fault ?ckpt ~domains ~samples rng (fun rng ->
      run_once rng ~burn_in query init)

(* The long-run average is over the stationary regime; averaging from the
   initial state folds the pre-mixing prefix into the estimate and biases
   it on slow-mixing chains.  [burn_in] walks (and discards) that prefix
   before any state is counted. *)
let eval_time_average rng ?(burn_in = 0) ~steps query init =
  if steps <= 0 then invalid_arg "eval_time_average: steps must be positive";
  if burn_in < 0 then invalid_arg "eval_time_average: burn_in must be non-negative";
  if Obs.enabled () then Obs.add steps_c (burn_in + steps);
  let db = ref init in
  for _ = 1 to burn_in do
    db := Lang.Forever.step_sampled rng query !db
  done;
  let hits = ref 0 in
  for _ = 1 to steps do
    if Lang.Event.holds query.Lang.Forever.event !db then incr hits;
    db := Lang.Forever.step_sampled rng query !db
  done;
  float_of_int !hits /. float_of_int steps

let estimate_burn_in ?max_steps ~eps query init =
  let chain = Exact_noninflationary.build_chain query init in
  match Markov.Chain.index chain init with
  | None -> None
  | Some start -> Markov.Mixing.mixing_time_from ?max_steps ~eps chain ~start
