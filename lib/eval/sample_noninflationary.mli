(** Sampling evaluation for non-inflationary queries (Theorem 5.6).

    When the induced chain is ergodic, walking [burn_in ≥ T(q,D)] steps
    (the mixing time) makes the end-state distribution ε-close to
    stationary; independent restarts then give Chernoff-quality estimates
    of the event probability, in time polynomial in the database size and
    the mixing time. *)

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
