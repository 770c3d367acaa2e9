(** Compilation of probabilistic datalog to transition kernels.

    Each rule body compiles to a relational-algebra expression computing its
    valuations (the classical translation, [AHV95]); the head adds the
    [repair-key] application of Section 3.3.  Programs then become
    probabilistic first-order interpretations under either semantics:

    - {!noninflationary_kernel}: every IDB relation is destructively
      recomputed from the current state each step (Definition 3.2), so
      pc-table "macros" are re-sampled every iteration;
    - {!inflationary_kernel}: the paper's [newVals]/[oldVals] algorithm —
      per-rule auxiliary relations remember which body valuations have
      already been used, [repair-key] fires only on the new ones, and all
      updates are unions, so the kernel is inflationary and every run
      reaches a fixpoint. *)

exception Compile_error of string

val canonical_columns : int -> string list
(** [x1; ...; xk] — the schema given to relations datalog creates. *)

val body_query : schema_of:(string -> string list) -> Datalog.atom list -> Prob.Palgebra.t * string list
(** Valuations of a rule body: a deterministic expression whose columns are
    the body's distinct variables (second component, in first-occurrence
    order).  The empty body yields the zero-column relation containing the
    empty tuple. *)

val rule_body_query :
  schema_of:(string -> string list) -> Datalog.rule -> Prob.Palgebra.t * string list
(** Like {!body_query} but for a whole rule: negated atoms become
    anti-joins against the positive valuations. *)

val head_query :
  schema_of:(string -> string list) -> Datalog.rule -> Prob.Palgebra.t -> Prob.Palgebra.t
(** Attach the head of [rule] to a valuations expression (columns = the
    rule body's variables): extend with the head terms, project,
    [repair-key] for probabilistic rules, rename to the head relation's
    schema.  Exposed so the semi-naive stepper can drive a pre-compiled
    head over the per-step new valuations. *)

val rule_query : schema_of:(string -> string list) -> Datalog.rule -> Prob.Palgebra.t
(** The full translation of one rule: body valuations, projection onto the
    head-relevant columns, [repair-key] keyed on the marked arguments
    (skipped for deterministic rules), and projection/renaming to the head
    relation's schema — Example 3.7's correspondence. *)

val initial_database : Datalog.program -> Relational.Database.t -> Relational.Database.t
(** The input database extended with empty IDB relations (canonical
    columns) for IDB predicates it does not already define. *)

val schema_of_database : Relational.Database.t -> string -> string list
(** [schema_of_database db] is the schema table of a concrete database —
    what {!Forever.compile} needs for a compiled
    kernel, whose initial database names every relation it mentions.
    Raises [Not_found] for an absent relation. *)

val noninflationary_kernel :
  Datalog.program -> Relational.Database.t -> Prob.Interp.t * Relational.Database.t
(** Kernel plus extended initial database.  EDB relations are carried
    unchanged; each IDB relation is reassigned the union of its rules'
    results. *)

val noninflationary_kernel_ctable :
  Datalog.program -> Prob.Ctable.t -> Prob.Interp.t * Relational.Database.t
(** Non-inflationary semantics over a probabilistic c-table input
    (Section 3.1): the c-table relations become kernel rules that re-sample
    the random variables and re-materialise the conditional tuples at every
    step ({!Ctable_macro}).  Raises {!Compile_error} if a c-table relation
    is also an IDB predicate. *)

val vals_relation : int -> string
(** Name of the auxiliary [oldVals] relation of rule [i]. *)

val inflationary_initial : Datalog.program -> Relational.Database.t -> Relational.Database.t
(** Just the initial-state extension of {!inflationary_kernel}: empty IDB
    relations plus one empty [oldVals] relation per rule. *)

val inflationary_kernel :
  Datalog.program -> Relational.Database.t -> Prob.Interp.t * Relational.Database.t
(** The Section 3.3 evaluation loop as a kernel over an extended state that
    includes one [oldVals] relation per rule.  All updates are unions, so
    the result always passes {!Inflationary.of_forever}. *)

val strip_auxiliary : Relational.Database.t -> Relational.Database.t
(** Drops the [oldVals] relations, recovering the visible database. *)
