(** Compiled physical plans for the probabilistic algebra — the [repair-key]
    extension of {!Relational.Plan}.

    A transition kernel is fixed for the lifetime of a query while the
    engines evaluate it against thousands of states, so it is compiled
    once: deterministic (Repair_key-free) subtrees become
    {!Relational.Plan} plans, the remaining operators become positional
    closures via {!Relational.Plan.Ops}, and [repair-key] resolves its key
    and weight columns to positions feeding
    {!Repair_key.repair_at}/{!Repair_key.draw_at}.  All
    {!Relational.Relation.Schema_error}s are raised at compile time.

    Each plan node carries two closures: exact evaluation, and one sampled
    execution parameterised by a {!Repair_key.draw} that picks each
    repair-key group's tuple, groups in ascending key order within a
    repair-key and the right operand of a binary operator before the left.
    [Dist.sample rng] makes that a random draw ({!sample},
    {!apply_sampled}); a caller can also record the draws or force earlier
    ones ({!apply_drawn}), which is how the non-inflationary sampler
    replays a state's steps without re-running its plans.

    Contract with the interpreter, for every database matching the
    compiled schemas:
    - [eval (compile ~schema_of e) db] = [Palgebra.eval e db] as an exact
      distribution (same support, same rational weights);
    - [sample rng (compile ~schema_of e) db] consumes the RNG stream
      exactly as [Palgebra.eval_sampled rng e db] does — deterministic
      subtrees draw nothing, samplers visit repair groups in the same
      order — so fixed-seed runs are bit-identical with and without plans.

    Plans are immutable and safe to execute concurrently from several
    domains. *)

type t

val compile : schema_of:(string -> string list) -> Palgebra.t -> t
(** [compile ~schema_of e]; [schema_of name] gives the column list of
    every relation [e] mentions (the kernel compiler's schema table, or the
    initial database's columns). *)

val schema : t -> string list

val eval : t -> Relational.Database.t -> Relational.Relation.t Dist.t
(** Exact evaluation; agrees with {!Palgebra.eval}. *)

val sample : Random.State.t -> t -> Relational.Database.t -> Relational.Relation.t
(** [draw (Dist.sample rng)]: one sampled world; agrees draw-for-draw with
    {!Palgebra.eval_sampled}. *)

(** {2 Delta plans}

    The {!Relational.Plan.Delta} contract lifted to the probabilistic
    algebra.  Deterministic (Repair_key-free) expressions compile to a real
    delta plan; probabilistic expressions make a fresh independent choice
    per step, so — like delta-aggregate invalidation — they are never
    incremental and [delta_eval] falls back to full evaluation. *)

type delta

val compile_delta : schema_of:(string -> string list) -> Palgebra.t -> delta

val delta_base : delta -> t
(** The full plan over the same expression. *)

val delta_incremental : delta -> bool

val delta_eval :
  delta ->
  Relational.Database.t ->
  Relational.Database.t option ->
  Relational.Relation.t Dist.t
(** [delta_eval d db delta] — with [Some dd] and an incremental plan this
    is the (point) distribution of {!Relational.Plan.Delta.run_delta};
    with [None] (first step) or a non-incremental plan it is full
    evaluation, i.e. [eval (delta_base d) db]. *)

(** {2 Whole interpretations} *)

type interp
(** A compiled transition kernel: every rule of an {!Interp.t} compiled. *)

val compile_interp : schema_of:(string -> string list) -> Interp.t -> interp

val apply : interp -> Relational.Database.t -> Relational.Database.t Dist.t
(** Agrees with {!Interp.apply} as an exact distribution. *)

val apply_drawn : Repair_key.draw -> interp -> Relational.Database.t -> Relational.Database.t
(** One successor, drawing through [draw] rule by rule in binding order. *)

val apply_sampled :
  Random.State.t -> interp -> Relational.Database.t -> Relational.Database.t
(** [apply_drawn (Dist.sample rng)]; agrees draw-for-draw with
    {!Interp.apply_sampled}. *)

val static_draws : interp -> bool
(** Whether every repair-key of the kernel reads a deterministic argument,
    decided when the kernel is compiled.  Then the groups a step draws
    from, their order and their weights are a function of the state alone,
    so a state's draws can be recorded once and replayed.  Datalog-compiled
    kernels always have this property; a repair-key nested under another's
    argument does not. *)

(** {2 Compiled-artifact cache}

    A small concurrent keyed cache for compiled artifacts (plans, prepared
    engine requests) shared across requests of a resident server.  Safe
    for concurrent use from several domains: plans are immutable, so one
    cached value may execute concurrently everywhere.  Eviction is FIFO at
    [capacity].  Hit/miss totals are kept intrinsically ({!Cache.stats})
    and also ticked as [Obs] counters ["<name>.hit"]/["<name>.miss"] when
    stats are enabled in the current scope. *)
module Cache : sig
  type 'a t

  val create : ?capacity:int -> string -> 'a t
  (** [create ~capacity name] — [name] prefixes the Obs counters; default
      capacity 64.  Raises [Invalid_argument] on non-positive capacity. *)

  val find_or_add : 'a t -> string -> (unit -> 'a) -> 'a
  (** [find_or_add t key build] returns the cached value under [key] or
      runs [build] (outside the cache lock — concurrent misses on the same
      key may build twice; the first insert wins) and caches its result. *)

  val stats : 'a t -> int * int * int
  (** (hits, misses, current entries) since creation. *)

  val clear : 'a t -> unit
end
