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
    shard.

    A run stops at the first sampled step that leaves the state unchanged
    when every kernel binding is repair-key-free (one successor per state);
    otherwise it confirms the fixpoint with one full kernel step.  Neither
    check draws from the RNG. *)

val ctable_sampler :
  program:Lang.Datalog.program -> Prob.Ctable.t -> (Random.State.t -> Relational.Database.t)
(** Draws a world of the c-table and extends it with the relations the
    compiled inflationary kernel expects.  The draw tables are built once,
    when the sampler is made; each world takes the draws of
    {!Prob.Ctable.sample_valuation}. *)

(** {2 The ground sampler}

    For a positive, repair-key-free program over a c-table
    ({!Exact_inflationary.lineage_applies}), each world's fixpoint is the
    least model of the world's facts.  The program is then grounded once,
    per request, on the max world (every row of the c-table present), and
    each sample is unit propagation over that ground program: draw a
    valuation, set the rows whose conditions hold, fire every rule
    instance whose body facts are all set, and read the event's fact.  No
    kernel step runs, so [max_steps] does not apply: propagation sets each
    fact at most once and always terminates. *)

type ground
(** A program grounded on the max world of a c-table, with the c-table's
    draw tables and row conditions compiled. *)

val ground :
  ?guard:Guard.t -> program:Lang.Datalog.program -> event:Lang.Event.t -> Prob.Ctable.t -> ground
(** Grounds [program] on every row of the c-table ({!Saturate.ground}),
    polling [guard]'s deadline and cancellation once per round (raising
    {!Guard.Exhausted}); the state budget does not apply.  Draws nothing. *)

val ground_size : ground -> int * int
(** Ground facts and rule instances. *)

val run_ground :
  ?guard:Guard.t ->
  ?fault:Guard.Fault.spec ->
  ?ckpt:Pool.ckpt ->
  ?domains:int ->
  samples:int ->
  Random.State.t ->
  ground ->
  Pool.run
(** The Theorem 4.3 estimator on the ground program, on {!Pool.run_samples}
    like {!run_samples}.  A sample draws its valuation with
    {!Prob.Ctable.draw}, which consumes the RNG exactly as
    {!ctable_sampler} does, and the kernel draws nothing on such a program,
    so for a fixed seed the hit count equals {!run_samples}' with
    [~init_sampler:(ctable_sampler ~program ct)] at every domain count.
    Propagation state is per domain and stamped per sample, so a sample
    costs what its world derives, not the size of the ground program.
    With {!Obs} enabled each sample adds the facts it derived to
    ["engine.steps"] and one to ["engine.fixpoints"]; no series is
    recorded. *)
