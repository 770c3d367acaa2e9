(** Exact evaluation of non-inflationary (forever) queries.

    The transition kernel and the input database induce a Markov chain over
    database instances (Section 3.1).  The walk is absorbed with
    probability 1 into a closed SCC of the condensation DAG; the answer
    combines the absorption probabilities with each closed component's
    internal stationary distribution (Theorem 5.5), which for an
    irreducible chain is its stationary mass of the event states
    (Proposition 5.4).  Every answer is solved on the chain's quotient by
    event-respecting lumping ({!Markov.Lumping.long_run_masses}), which
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
  ?max_states:int ->
  ?guard:Guard.t ->
  Lang.Forever.t ->
  Relational.Database.t ->
  Relational.Database.t Markov.Chain.t
(** The chain of database instances reachable from the input (default state
    cap 100000 guards against blow-up; {!Markov.Chain.Chain_error} past
    it).  [guard] bounds exploration {e recoverably}: past its state budget
    or deadline the build raises {!Guard.Exhausted} for the engine to turn
    into a partial result or a sampling fallback. *)

val eval :
  ?max_states:int -> ?guard:Guard.t -> Lang.Forever.t -> Relational.Database.t -> Bigq.Q.t
(** The query result: long-run average probability that the event holds. *)

val analyse :
  ?max_states:int -> ?guard:Guard.t -> Lang.Forever.t -> Relational.Database.t -> analysis
(** {!eval} plus the structural diagnostics. *)

val expected_hitting_time :
  ?max_states:int -> Lang.Forever.t -> Relational.Database.t -> Bigq.Q.t option
(** Expected number of steps until the event first holds, starting from the
    input state, exactly ({!Markov.Hitting}).  [Some 0] if it already
    holds; [None] when the event is reached with probability < 1. *)

type events_analysis = {
  chain_states : int;  (** chain states before lumping *)
  lumped_classes : int;  (** lumped classes the answers were solved on *)
  masses : (Lang.Event.t * Bigq.Q.t) list;  (** one answer per event, in order *)
}

val eval_events :
  ?max_states:int ->
  ?guard:Guard.t ->
  kernel:Prob.Interp.t ->
  events:Lang.Event.t list ->
  Relational.Database.t ->
  events_analysis
(** Evaluate several query events over the SAME kernel and input — the
    chain is built, lumped by the events' joint indicator vectors and
    decomposed once; only the final mass summation is per-event.  E.g. the
    full stationary distribution of a walk in one pass.  Steps via compiled
    physical plans ({!Prob.Pplan}) built against the initial database's
    schemas.  Records [Obs] phases "compile", "explore", "lump" and
    "solve". *)

val eval_kernel :
  ?max_states:int -> kernel:Lang.Kernel.t -> event:Lang.Event.t -> Relational.Database.t -> Bigq.Q.t
(** {!eval} for an arbitrary (possibly composite) transition kernel built
    with {!Lang.Kernel} combinators. *)

val eval_worlds :
  ?max_states:int ->
  ?prepare:(Relational.Database.t -> Relational.Database.t) ->
  Lang.Forever.t ->
  Relational.Database.t Prob.Dist.t ->
  Bigq.Q.t
(** Weighted average over initial worlds of a probabilistic database. *)
