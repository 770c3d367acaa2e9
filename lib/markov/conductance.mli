(** Conductance and Cheeger-style mixing bounds — the techniques Section 5.1
    points to for characterising chains with small mixing time.

    For an irreducible chain with stationary distribution π, the conductance
    is [Φ = min_{S : 0 < π(S) ≤ 1/2} Q(S, S̄) / π(S)] where
    [Q(x,y) = π(x) P(x,y)].  Exact, by subset enumeration — exponential in
    the number of states, intended for the small chains of the analysis
    experiments. *)

val is_reversible : 'a Chain.t -> bool
(** Detailed balance [π(i) P(i,j) = π(j) P(j,i)] for an irreducible chain. *)

val conductance : ?max_states:int -> 'a Chain.t -> Bigq.Q.t
(** Raises {!Chain.Chain_error} if the chain is not irreducible or has more
    than [max_states] (default 16) states.  [max_states] bounds the
    exhaustive enumeration of state subsets (2{^n} of them); it is not the
    explored-state budget of exact evaluation, which is {!Guard}'s. *)

val cheeger_mixing_upper_bound : eps:float -> 'a Chain.t -> float
(** The classical bound for lazy reversible chains:
    [t_mix(ε) ≤ (2/Φ²) · ln(1/(ε · π_min))].  Meaningful when
    {!is_reversible} holds and every state has a self-loop of probability
    ≥ 1/2 (laziness); callers should check. *)

val conductance_lower_bound : 'a Chain.t -> float
(** The classical bottleneck lower bound [t_mix(1/4) ≥ 1/(4Φ)]
    (Levin–Peres Thm 7.4); ε-independent, stated at ε = 1/4. *)
