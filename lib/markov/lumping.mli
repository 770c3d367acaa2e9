(** Ordinary lumpability (Kemeny–Snell): quotienting a chain by the
    coarsest partition that refines an initial labelling and is consistent
    with the dynamics.

    A partition is ordinarily lumpable when all states of a class have the
    same total transition probability into every class; the quotient is
    then itself a Markov chain, and the lumped process has the law of the
    quotient chain from every start state.  Starting from the event
    labelling, lumping can shrink the exponential database-state chains of
    non-inflationary evaluation dramatically before Gaussian elimination;
    every exact long-run answer is solved on the quotient
    ({!long_run_mass}). *)

type result = {
  quotient : int Chain.t;  (** states labelled by class id *)
  class_of : int array;  (** original state -> class id *)
  num_classes : int;
}

val lump : initial:(int -> 'l) -> 'a Chain.t -> result
(** [lump ~initial chain] refines the partition induced by [initial] (any
    labelling of the states, compared structurally) to the coarsest
    ordinarily-lumpable partition.  Splitter-driven refinement: when a
    class splits, only the predecessors of its pieces are re-weighed, and
    a class already used as a splitter re-enters the work list without its
    largest piece, so a state's in-edges are weighed O(log states) times.
    Class ids are numbered by first occurrence over the states
    [0 .. n-1].  Always succeeds; worst case every state is its own
    class. *)

val long_run_mass : 'a Chain.t -> start:int -> event:(int -> bool) -> result * Bigq.Q.t
(** [long_run_mass chain ~start ~event] is the long-run average occupation
    mass of [event]'s states for the walk started at [start], with the
    lumping it was solved on.  The chain is lumped by the event
    indicator; the walk from [class_of start] is absorbed into the
    quotient's closed components ({!Absorption.into_closed}), each weighted
    by its internal stationary distribution (Theorem 5.5; an irreducible quotient is Proposition 5.4).
    Records the ["lump"] and ["solve"] {!Obs} phases. *)
