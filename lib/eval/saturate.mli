(** Annotated saturation of a datalog program: one fixpoint over relations
    whose facts each carry an annotation.

    A rule body's annotation is the {!field-conj} of its atoms'
    annotations; alternative derivations of one fact combine with
    {!field-disj}.  The loop is semi-naive: a rule is re-fired only with a
    body atom ranging over the facts whose annotation changed in the
    previous round, the other atoms ranging over every fact through hash
    indexes on their bound columns.  It stops when a round changes no
    annotation, which terminates whenever the annotations form a finite
    lattice under [disj] (base-tuple sets, decision diagrams over finitely
    many variables).

    The reading is classical: comparison guards are applied, negated atoms
    are ignored and a probabilistic head fires for every valuation, as if
    all its arguments were keys.  Callers that need exact semantics
    restrict themselves to positive, repair-key-free programs. *)

type 'a algebra = {
  one : 'a;  (** annotation of an empty body *)
  conj : 'a -> 'a -> 'a;  (** joint use of two body facts *)
  disj : 'a -> 'a -> 'a;  (** alternative derivations of one fact *)
  equal : 'a -> 'a -> bool;
}

type 'a t
(** The saturated facts with their final annotations. *)

val run :
  ?poll:(unit -> unit) ->
  'a algebra ->
  Lang.Datalog.program ->
  (string * Relational.Tuple.t * 'a) list ->
  'a t
(** [run alg program base] saturates [program] from the annotated base
    facts (a fact listed twice gets the [disj] of its annotations).
    [poll] runs once per round and may raise to stop the loop. *)

val find : 'a t -> string -> Relational.Tuple.t -> 'a option

val fold : (string -> Relational.Tuple.t -> 'a -> 'b -> 'b) -> 'a t -> 'b -> 'b
(** Every fact, grouped by predicate in order of first mention (base
    predicates first, then rule order), tuples in {!Relational.Tuple.compare}
    order within a predicate. *)

type ground = {
  model : int t;  (** every fact, annotated with its id in [0, num_facts) *)
  num_facts : int;
  instances : (int * int array) list;
      (** the rule firings: head fact id and the distinct body fact ids
          (ascending; empty for an empty-bodied rule), each firing once,
          in order of discovery *)
}
(** A program grounded on a set of facts. *)

val ground :
  ?poll:(unit -> unit) -> Lang.Datalog.program -> (string * Relational.Tuple.t) list -> ground
(** [ground program base] saturates [program] from the unannotated [base]
    facts and records how each fact was derived.  For a positive program
    the least model of any subset of [base] is then what unit propagation
    over [instances] derives from that subset.  An instance whose head is
    among its body facts is left out: it derives nothing new.  [poll] runs
    once per round, as in {!run}. *)

val rounds : 'a t -> int
(** Semi-naive rounds run, the round that fires empty-bodied rules
    excluded. *)
