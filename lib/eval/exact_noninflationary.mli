(** Exact evaluation of non-inflationary (forever) queries.

    The transition kernel and the input database induce a Markov chain over
    database instances (Section 3.1).  The walk is absorbed with
    probability 1 into a closed SCC of the condensation DAG; the answer
    combines the absorption probabilities with each closed component's
    internal stationary distribution (Theorem 5.5), which for an
    irreducible chain is its stationary mass of the event states
    (Proposition 5.4).  Every answer is solved on the chain's quotient by
    event-respecting lumping ({!Markov.Lumping.long_run_mass}), which
    preserves the long-run law from the start state and often collapses
    the state space by orders of magnitude before Gaussian elimination. *)

type analysis = {
  chain : Relational.Database.t Markov.Chain.t;
  num_states : int;  (** chain states before lumping *)
  num_classes : int;  (** lumped classes the answer was solved on *)
  irreducible : bool;
  ergodic : bool;
  result : Bigq.Q.t;
}

val build_chain :
  ?guard:Guard.t -> Lang.Forever.t -> Relational.Database.t -> Relational.Database.t Markov.Chain.t
(** The chain of database instances reachable from the input.  [guard]
    (default {!Guard.unlimited}: no bound) is the only bound on
    exploration: past its state budget or deadline the build raises
    {!Guard.Exhausted} for the engine to turn into a partial result or a
    sampling fallback.  Every function below that takes a [guard] passes
    it here; the others explore without a bound. *)

val eval : ?guard:Guard.t -> Lang.Forever.t -> Relational.Database.t -> Bigq.Q.t
(** The query result: long-run average probability that the event holds. *)

val analyse : ?guard:Guard.t -> Lang.Forever.t -> Relational.Database.t -> analysis
(** {!eval} plus the structural diagnostics. *)

val expected_hitting_time :
  ?guard:Guard.t -> Lang.Forever.t -> Relational.Database.t -> Bigq.Q.t option
(** Expected number of steps until the event first holds, starting from the
    input state, exactly ({!Markov.Hitting}).  [Some 0] if it already
    holds; [None] when the event is reached with probability < 1. *)
