module Database = Relational.Database
module Dist = Prob.Dist

exception Did_not_converge of int

let samples_needed ~eps ~delta =
  if eps <= 0.0 || delta <= 0.0 || delta >= 1.0 then invalid_arg "samples_needed";
  int_of_float (ceil (log (2.0 /. delta) /. (2.0 *. eps *. eps)))

let steps_c = Obs.counter "engine.steps"
let fixpoints_c = Obs.counter "engine.fixpoints"

let run_once ?(max_steps = 100_000) rng query init =
  let forever = Lang.Inflationary.forever query in
  let event = Lang.Inflationary.event query in
  (* Stats are checked once per sample (at the fixpoint), not per step.
     Per-step growth series are latched once per sample too; a step is a
     whole kernel application, so the extra branch is noise even when on. *)
  let ser = Obs.Series.enabled () in
  let finish db steps =
    if Obs.enabled () then begin
      Obs.add steps_c steps;
      Obs.incr fixpoints_c
    end;
    Lang.Event.holds event db
  in
  let rec go db steps =
    if steps > max_steps then raise (Did_not_converge max_steps);
    let db' = Lang.Forever.step_sampled rng forever db in
    if ser then begin
      let t = Database.total_tuples db' in
      Obs.Series.add "fixpoint.db_tuples" ~it:steps (float_of_int t);
      Obs.Series.add "fixpoint.delta_tuples" ~it:steps
        (float_of_int (t - Database.total_tuples db))
    end;
    if Database.equal db db' then
      (* The sampled step kept the state; confirm it is a true fixpoint
         rather than a self-loop we happened to sample. *)
      if Lang.Inflationary.is_fixpoint query db then finish db steps
      else go db' (steps + 1)
    else go db' (steps + 1)
  in
  go init 0

let run_samples ?max_steps ?init_sampler ?guard ?fault ?ckpt ?(domains = 1) ~samples rng query
    init =
  Pool.run_samples ?guard ?fault ?ckpt ~domains ~samples rng (fun rng ->
      let world = match init_sampler with Some f -> f rng | None -> init in
      run_once ?max_steps rng query world)

let ctable_sampler ~program ctable rng =
  let theta = Prob.Ctable.sample_valuation rng ctable in
  let world = Prob.Ctable.instantiate ctable theta in
  Lang.Compile.inflationary_initial program world
