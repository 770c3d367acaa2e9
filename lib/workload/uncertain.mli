(** Probabilistic-database workloads with known closed-form answers, used
    to calibrate the exact-vs-approximate experiments (E1/E2). *)

val uncertain_line : n:int -> Prob.Ctable.t * Lang.Datalog.program * Lang.Event.t
(** A path [v0 → v1 → … → vn] where every edge independently exists with
    probability 1/2 (a probabilistic c-table), plus the reachability
    program from [v0].  The event is "[vn] reached", whose probability is
    exactly [1/2ⁿ] — the c-table has [2ⁿ] worlds, so exact evaluation
    scales exponentially while sampling stays linear per run. *)

val uncertain_parallel : n:int -> Prob.Ctable.t * Lang.Datalog.program * Lang.Event.t
(** [n] disjoint two-edge paths from [v0] to [t]; each path exists fully
    with probability 1/4, independently, so
    [Pr(t reached) = 1 − (3/4)ⁿ]. *)

val uncertain_grid : k:int -> Prob.Ctable.t * Lang.Datalog.program * Lang.Event.t
(** The non-hierarchical query [Q(ok) :- R(X), S(X, Y), T(Y)] over a
    [k × k] grid: [k] tuples each in [R] and [T] and [k²] in [S], every
    tuple present independently with probability 1/2 ([2k + k²] flags).
    Its lineage is not read-once, so unlike the line and the parallel
    paths its decision diagram does not stay linear; there is no closed
    form. *)

val expected_line : n:int -> Bigq.Q.t
val expected_parallel : n:int -> Bigq.Q.t
