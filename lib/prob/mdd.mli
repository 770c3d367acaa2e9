(** Reduced ordered multi-valued decision diagrams (MDDs) over the
    finite-domain variables of a pc-table ({!Ctable}).

    A diagram denotes a Boolean function of a valuation: an inner node
    tests one variable and has one child per entry of its domain; the
    leaves are {!bot} and {!top}.  Variables are tested in declaration
    order, nodes are hash-consed and a node whose children are all equal
    is never built, so two equal functions get the same node and
    {!size} is canonical for the order.

    A manager owns the unique table and the operation memos.  It belongs
    to one evaluation: build one per query and drop it afterwards, so no
    table outlives the answer it was built for.  Nodes are only meaningful
    with the manager that built them. *)

type man

type t = private int
(** A node of some manager.  [bot] and [top] are shared by all managers. *)

val create : ?on_node:(unit -> unit) -> Ctable.var list -> man
(** A manager over the given variables, tested in list order.  [on_node]
    runs once per inner node created — a budget hook: it may raise, and
    the manager stays consistent when it does. *)

val bot : t
val top : t
val equal : t -> t -> bool

val of_cond : man -> Ctable.cond -> t
(** The diagram of a c-table condition: exactly the valuations for which
    {!Ctable.eval_cond} holds.  [x = y] between two variables is the
    disjunction over [x]'s domain of [x = v ∧ y = v].  Raises
    {!Ctable.Ctable_error} on a variable the manager does not know. *)

val conj : man -> t -> t -> t
val disj : man -> t -> t -> t
val neg : man -> t -> t

val prob : man -> t -> Bigq.Q.t
(** Probability that the function holds under the variables' independent
    distributions: one memoised bottom-up pass with exact weights. *)

val size : man -> t -> int
(** Distinct nodes reachable from the node, leaves included. *)

val nodes_created : man -> int
(** Inner nodes built by this manager so far. *)
