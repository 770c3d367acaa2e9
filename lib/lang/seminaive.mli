(** Semi-naive (delta) stepping for the inflationary kernel.

    Compiles each rule of a program once into a delta plan for its body
    valuations ({!Prob.Pplan.compile_delta}) plus a head plan (projection,
    repair-key, rename) over a per-rule [__newvals<i>] pseudo-relation.
    {!step} then threads a [(db, delta)] pair through the fixpoint: from
    the second step on, only tuples derived since the previous state flow
    through the joins, while the successor {e distribution} is exactly the
    naive kernel's ({!Compile.inflationary_kernel} stepped by
    {!Forever.step}) — including repair-key choices, which see the same
    per-rule new-valuations relation either way.

    Rules whose bodies are not delta-compatible (negation compiles to
    [Diff], aggregates invalidate) silently fall back to full per-rule
    re-evaluation; {!incremental_rules} says how many rules got the real
    delta treatment. *)

type t

val compile : schema_of:(string -> string list) -> Datalog.program -> t
(** [schema_of] is the kernel compiler's schema table (e.g.
    {!Compile.schema_of_database} of the inflationary initial database).
    Raises the usual compile-time schema errors. *)

val incremental_rules : t -> int
(** Rules evaluated incrementally (monotone, delta-compiled bodies). *)

val total_rules : t -> int

val step :
  t ->
  db:Relational.Database.t ->
  delta:Relational.Database.t option ->
  (Relational.Database.t * Relational.Database.t) Prob.Dist.t
(** One semi-naive step — see {!Forever.delta_stepper} for the contract.
    [delta = None] (the initial state) forces a full evaluation of every
    rule body, so constant seed rules ([R(a) :- .]) fire. *)

val stepper : t -> Forever.delta_stepper

val install : t -> Forever.t -> Forever.t
(** [Forever.with_delta] with this stepper. *)
