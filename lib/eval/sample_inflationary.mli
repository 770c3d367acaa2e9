(** Randomized absolute approximation for inflationary queries
    (Theorem 4.3): Monte-Carlo over independent runs to the fixpoint, with
    the additive Chernoff/Hoeffding bound sizing the sample count. *)

exception Did_not_converge of int
(** A run exceeded the step bound without reaching a fixpoint. *)

val samples_needed : eps:float -> delta:float -> int
(** Smallest [m] with [2 exp(−2 ε² m) ≤ δ], i.e.
    [m = ⌈ln(2/δ) / (2 ε²)⌉]: running [m] independent trials yields
    [Pr(|p̂ − p| ≥ ε) ≤ δ]. *)

val run_samples :
  ?max_steps:int ->
  ?init_sampler:(Random.State.t -> Relational.Database.t) ->
  ?guard:Guard.t ->
  ?fault:Guard.Fault.spec ->
  ?ckpt:Pool.ckpt ->
  ?domains:int ->
  samples:int ->
  Random.State.t ->
  Lang.Inflationary.t ->
  Relational.Database.t ->
  Pool.run
(** The Theorem 4.3 estimator: [samples] independent runs to the fixpoint
    on {!Pool.run_samples} (budgets, fault injection, checkpoint/resume),
    counting those whose fixpoint satisfies the event.  [domains]
    (default 1) only spreads the shards; for a fixed seed the result is
    the same at every domain count.  [init_sampler], when given, draws a
    fresh initial world per run (e.g. a c-table valuation); the database
    argument is then ignored.  Size [samples] with {!samples_needed}.

    [max_steps] (default 100000) bounds each run's walk to the fixpoint; a
    run that exceeds it fails its shard with {!Did_not_converge} inside
    {!Pool.Worker_error}.  When {!Obs.Series} is enabled, each run records
    ["fixpoint.db_tuples"] and ["fixpoint.delta_tuples"] per step under its
    shard. *)

val ctable_sampler :
  program:Lang.Datalog.program -> Prob.Ctable.t -> (Random.State.t -> Relational.Database.t)
(** Draws a world of the c-table and extends it with the relations the
    compiled inflationary kernel expects. *)
