type delta_stepper =
  db:Relational.Database.t ->
  delta:Relational.Database.t option ->
  (Relational.Database.t * Relational.Database.t) Prob.Dist.t

type t = {
  kernel : Prob.Interp.t;
  plan : Prob.Pplan.interp option;
  delta : delta_stepper option;
  event : Event.t;
}

let make ~kernel ~event = { kernel; plan = None; delta = None; event }

let compile ~schema_of q =
  { q with plan = Some (Prob.Pplan.compile_interp ~schema_of q.kernel) }

let interpreted q = { q with plan = None; delta = None }
let is_compiled q = Option.is_some q.plan

let with_delta q stepper = { q with delta = Some stepper }
let without_delta q = { q with delta = None }
let delta_stepper q = q.delta

let step q db =
  match q.plan with
  | Some p -> Prob.Pplan.apply p db
  | None -> Prob.Interp.apply q.kernel db

let step_sampled rng q db =
  match q.plan with
  | Some p -> Prob.Pplan.apply_sampled rng p db
  | None -> Prob.Interp.apply_sampled rng q.kernel db

let static_draws q =
  match q.plan with Some p -> Prob.Pplan.static_draws p | None -> false

let step_drawn draw q db =
  match q.plan with
  | Some p -> Prob.Pplan.apply_drawn draw p db
  | None -> invalid_arg "Forever.step_drawn: the query is not compiled"

let is_inflationary_at q db =
  List.for_all
    (fun (db', _) -> Relational.Database.subsumes db' db)
    (Prob.Dist.support (step q db))

let pp fmt q =
  Format.fprintf fmt "@[<v>forever {@,%a}@,event: %a@]" Prob.Interp.pp q.kernel Event.pp q.event
