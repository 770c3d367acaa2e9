(** Sampling evaluation for non-inflationary queries (Theorem 5.6).

    When the induced chain is ergodic, walking [burn_in ≥ T(q,D)] steps
    (the mixing time) makes the end-state distribution ε-close to
    stationary; independent restarts then give Chernoff-quality estimates
    of the event probability, in time polynomial in the database size and
    the mixing time.

    {2 The step memo}

    Both estimators step through a per-state memo when the compiled kernel
    has static draws ({!Lang.Forever.static_draws}; every Datalog-compiled
    kernel has).  The first step from a state runs the kernel once with a
    recording draw: it draws from the RNG exactly as [Dist.sample] does and
    keeps each repair-key group's cumulative float table and the choice it
    made, and it interns the successor under that choice vector.  A later
    step from the state draws one float per group against the stored
    tables and looks the successor up; only a choice vector not seen
    before runs the kernel again, with the choices forced.  The event is
    evaluated once per interned state.

    - Draws are identical to plain stepping: one [Random.State.float rng
      1.0] per group, in the kernel's order, resolved by [Dist.sample]'s
      rule.  Every fixed-seed estimate, checkpoint, resume and fault retry
      is therefore the one plain stepping gives, at every domain count.
    - The memo interns at most {!memo_states} states and stores at most
      {!memo_transitions} transitions.  Once it is full, a walk that
      reaches a state it does not hold steps on the plans with
      [Dist.sample rng] draws until the walk restarts, without interning
      or looking up the states it passes; new transitions are not stored.
    - One memo per domain (domain-local storage, keyed by the query's
      identity), dropped when the run ends: nothing is kept between runs
      and no table is shared across domains.
    - Stats: ["repair_key.draws"] counts every RNG draw, replayed ones
      included; ["engine.states"] counts the interned states, summed over
      domains; plan operator ticks count kernel runs, not steps.

    A kernel without static draws (a repair-key under another's argument,
    or an uncompiled query) steps on the plans every time. *)

val memo_states : int
(** 1024: the most states one memo interns. *)

val memo_transitions : int
(** 65 536: the most transitions one memo stores. *)

val stepper : Lang.Forever.t -> string
(** ["memo"] when the estimators step through the memo, else ["plan"]: a
    static property of the compiled query, the same at every domain count. *)

val run_samples :
  ?guard:Guard.t ->
  ?fault:Guard.Fault.spec ->
  ?ckpt:Pool.ckpt ->
  ?domains:int ->
  Random.State.t ->
  burn_in:int ->
  samples:int ->
  Lang.Forever.t ->
  Relational.Database.t ->
  Pool.run
(** The Theorem 5.6 estimator: [samples] independent restarts on
    {!Pool.run_samples} (budgets, fault injection, checkpoint/resume), each
    walking [burn_in] steps from the input; counts the restarts whose end
    state satisfies the event.  [domains]
    (default 1) only spreads the shards; for a fixed seed the result is
    the same at every domain count.  Size [samples] with
    {!Sample_inflationary.samples_needed}.  Raises [Invalid_argument] when
    [burn_in < 0]. *)

val eval_time_average :
  Random.State.t -> ?burn_in:int -> steps:int -> Lang.Forever.t -> Relational.Database.t -> float
(** Single-walk estimator of the defining limit: the fraction of [steps]
    consecutive states satisfying the event, after walking (and discarding)
    [burn_in] steps first (default 0).  Consistent for ergodic chains but
    with correlated samples; without burn-in the pre-mixing prefix biases
    the estimate on slow-mixing chains. *)

val estimate_burn_in :
  ?max_steps:int -> eps:float -> Lang.Forever.t -> Relational.Database.t -> int option
(** Builds the exact chain (no state bound) and measures the mixing time
    from the input state — usable on small instances to calibrate
    [burn_in].  [None] when
    the chain is not ergodic or does not mix within [max_steps]. *)
