(** The partitioning pre-process of Section 5.1.

    A provenance-annotated inflationary saturation of the program (ignoring
    the probabilistic choices, i.e. firing every valuation as in classical
    datalog) discovers which base tuples can ever interact in a derivation.
    Base tuples are then grouped into independence classes; each class
    induces a sub-database whose query can be evaluated separately, and the
    per-class results combine as
    [p = 1 − Π_classes (1 − p_class)]
    (the paper states the complementary product for the event failing). *)

val classes :
  Lang.Datalog.program -> Relational.Database.t -> (string * Relational.Tuple.t) list list
(** Partition of the base tuples (all tuples of the input database) into
    independence classes. *)

val eval_noninflationary :
  ?guard:Guard.t ->
  Lang.Datalog.program ->
  Relational.Database.t ->
  Lang.Event.t ->
  Bigq.Q.t * int
(** Partitioned exact evaluation of the non-inflationary datalog query:
    compile each class's kernel to physical plans against its
    sub-database, evaluate per class, combine multiplicatively.  Returns
    the answer and the number of classes.  [guard] (default
    {!Guard.unlimited}) bounds the states explored across all classes'
    chains together and raises {!Guard.Exhausted} past it.  Sound when
    the classes are genuinely independent (which the provenance analysis
    guarantees for derivations; the caller must ensure the event is a
    per-class property, as in the paper). *)

val saturate :
  Lang.Datalog.program ->
  Relational.Database.t ->
  (string * Relational.Tuple.t * int list) list
(** The provenance saturation itself, exposed for inspection and tests:
    every derivable fact with the sorted list of base-tuple ids any of its
    derivations used.  Base ids number the database's tuples in
    [(relation, tuple)] order. *)
