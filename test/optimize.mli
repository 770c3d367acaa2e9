(** Algebraic rewriting for {!Prob.Palgebra} expressions — the "generic
    optimization techniques for query evaluation" the paper lists as future
    work.  Test-only: it measured within about 8% of the unoptimised plans
    and no evaluation path runs it.

    All rewrites are distribution-preserving: for every database with the
    declared schemas, the optimised expression evaluates to the same
    distribution over relations (property-tested in the suite).  The
    probabilistic operator is treated carefully: nothing is pushed through
    [Repair_key] except selections that mention only key columns, which
    commute because groups are chosen independently, so dropping whole
    groups before or after the choice yields the same marginal.

    Rewrites performed (to a fixpoint):
    - conjunctive selections split and pushed below [Union]/[Diff]/[Rename]/
      [Join]/[Product] operands whose schema covers them;
    - key-only selections pushed through [Repair_key];
    - cascading projections collapsed; identity projections/renames dropped;
    - [Select true] dropped, [Select false] replaced by the empty constant;
    - unions/differences with the empty constant simplified;
    - column pruning: joins under a projection only materialise the columns
      the projection or the join condition needs. *)

val expression :
  schema_of:(string -> string list) -> Prob.Palgebra.t -> Prob.Palgebra.t
(** Optimise one expression.  [schema_of] must give the schema of every
    relation the expression mentions (e.g. from the initial database plus
    {!Lang.Compile.canonical_columns} defaults — the kernel compiler's
    schema table). *)

val interp :
  schema_of:(string -> string list) -> Prob.Interp.t -> Prob.Interp.t
(** Optimise every rule of an interpretation. *)
