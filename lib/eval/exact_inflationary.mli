(** Exact evaluation of inflationary queries (Proposition 4.4).

    Traverses the tree of possible computations down to all fixpoints.
    Because the state only grows along every edge, the only cycles are
    self-loops, whose geometric escape is folded in by conditioning: from a
    non-fixpoint state [A] with self-probability [p], the walk leaves [A]
    with probability 1, so each strict successor's weight is renormalised by
    [1/(1 − p)].  Results are exact rationals.  Unlike the PSPACE-frugal
    traversal of the paper we memoise states, trading memory for speed; the
    visited-state count is the same. *)

exception Diverged of string
(** Raised when a transition produces a state that does not contain the
    previous one — the query was not inflationary after all. *)

type stats = {
  states_visited : int;  (** distinct states expanded *)
  fixpoints : int;  (** distinct fixpoints reached *)
}

val eval : ?guard:Guard.t -> Lang.Inflationary.t -> Relational.Database.t -> Bigq.Q.t
(** Probability that the event holds at the fixpoint, starting from a
    certain database.  [guard] (default {!Guard.unlimited}) is charged one
    state per distinct visited database; exceeding its state budget or
    deadline raises {!Guard.Exhausted} with the work done so far still
    readable from the guard.

    When the query carries a semi-naive stepper
    ({!Lang.Forever.delta_stepper}, installed by {!Lang.Seminaive.install}),
    successors are computed incrementally from the per-step deltas; the
    visited states, their count and the exact answer are identical to the
    naive walk.  Memoisation stays sound because the [oldVals] relations
    make each state's successor distribution path-independent. *)

val eval_pspace : Lang.Inflationary.t -> Relational.Database.t -> Bigq.Q.t
(** The paper's Proposition 4.4 algorithm verbatim: a full traversal of the
    computation tree storing only the current path (no memoisation) —
    polynomial space, potentially revisiting shared states exponentially
    often.  Kept as the reference implementation and for the
    time-vs-memory ablation. *)

val eval_with_stats :
  ?guard:Guard.t -> Lang.Inflationary.t -> Relational.Database.t -> Bigq.Q.t * stats

val eval_worlds :
  ?guard:Guard.t ->
  ?prepare:(Relational.Database.t -> Relational.Database.t) ->
  Lang.Inflationary.t ->
  Relational.Database.t Prob.Dist.t ->
  Bigq.Q.t
(** Probability-weighted average over the worlds of a probabilistic input
    database (e.g. {!Prob.Ctable.worlds}); [prepare] lets callers extend
    each world with the empty IDB / auxiliary relations the kernel needs
    (see {!Lang.Compile.initial_database}).  [guard]'s state budget spans
    the whole enumeration, as in {!eval_ctable}. *)

val eval_ctable :
  ?guard:Guard.t ->
  ?plan:bool ->
  program:Lang.Datalog.program -> event:Lang.Event.t -> Prob.Ctable.t -> Bigq.Q.t
(** The "even over probabilistic c-tables" case of Proposition 4.4: the
    probability that the event holds at the fixpoint, averaged over the
    c-table's worlds.

    A program with no repair-key rule and no negated atom
    ({!lineage_applies}) is answered by one annotated fixpoint
    ({!Saturate}): every fact carries the decision diagram ({!Prob.Mdd})
    of the worlds that derive it, and the answer is the event diagram's
    probability.  [guard]'s state budget is charged one state per diagram
    node created and its deadline is polled once per saturation round.

    Any other program is compiled under inflationary semantics against
    each world and the per-world answers are averaged.  [plan] (default
    [false]) steps every world's fixpoint through one shared compiled,
    semi-naive delta plan instead of the interpreted kernel; the exact
    answer is identical either way.  [guard]'s state budget spans the
    whole world enumeration (one shared counter across worlds).

    Both paths give the same exact rational. *)

val eval_ctable_worlds :
  ?guard:Guard.t ->
  ?plan:bool ->
  program:Lang.Datalog.program -> event:Lang.Event.t -> Prob.Ctable.t -> Bigq.Q.t
(** The enumeration path of {!eval_ctable} for any program: one exact
    fixpoint per world.  [eval_ctable] takes it outside the lineage
    fragment; the experiments call it to measure what lineage saves. *)

val lineage_applies : Lang.Datalog.program -> bool
(** No rule uses repair-key ({!Lang.Datalog.is_probabilistic_rule}) and no
    rule has a negated atom: every world's fixpoint is then deterministic. *)

type ctable_method =
  | Lineage of { nodes : int }  (** the event diagram's {!Prob.Mdd.size} *)
  | Worlds

val eval_ctable_method :
  ?guard:Guard.t ->
  ?plan:bool ->
  program:Lang.Datalog.program ->
  event:Lang.Event.t ->
  Prob.Ctable.t ->
  Bigq.Q.t * ctable_method
(** {!eval_ctable} together with the path it took.  On the lineage path,
    when {!Obs} is enabled, saturation rounds are added to the
    ["engine.steps"] counter and diagram nodes created to
    ["engine.states"]. *)
